#include "fabric/flow_lifecycle.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "perf/profiler.hpp"

namespace basrpt::fabric {

FlowLifecycle::FlowLifecycle(queueing::VoqMatrix* voqs,
                             stats::FctAggregator& fct,
                             obs::FlowTracer* tracer)
    : voqs_(voqs), fct_(fct), tracer_(tracer) {}

void FlowLifecycle::begin_run() {
  if (tracer_ != nullptr) {
    tracer_->begin_run();
  }
}

FlowId FlowLifecycle::admit(const Admission& a) {
  BASRPT_ASSERT(a.size.count > 0, "arriving flow must carry bytes");
  const FlowId id = next_id_++;
  if (voqs_ != nullptr) {
    queueing::Flow flow;
    flow.id = id;
    flow.src = a.src;
    flow.dst = a.dst;
    flow.size = a.size;
    flow.remaining = a.size;
    flow.arrival = a.arrival;
    flow.cls = a.cls;
    voqs_->add_flow(flow);
  }
  ++flows_arrived_;
  bytes_arrived_ += a.size;
  if (tracer_ != nullptr) {
    tracer_->on_arrival(id, a.src, a.dst, a.arrival.seconds,
                        static_cast<double>(a.size.count));
  }
  return id;
}

FlowId FlowLifecycle::requeue(const queueing::Flow& evicted, double now) {
  BASRPT_ASSERT(evicted.remaining.count > 0,
                "requeued flow must carry remaining bytes");
  const FlowId id = next_id_++;
  if (voqs_ != nullptr) {
    BASRPT_ASSERT(!voqs_->contains(evicted.id),
                  "requeue expects the flow already evicted");
    queueing::Flow flow;
    flow.id = id;
    flow.src = evicted.src;
    flow.dst = evicted.dst;
    flow.size = evicted.remaining;
    flow.remaining = evicted.remaining;
    flow.arrival = SimTime{now};
    flow.cls = evicted.cls;
    voqs_->add_flow(flow);
  }
  ++flows_requeued_;
  if (tracer_ != nullptr) {
    tracer_->on_preemption(evicted.id, evicted.src, evicted.dst, now,
                           static_cast<double>(evicted.size.count),
                           static_cast<double>(evicted.remaining.count));
    tracer_->on_arrival(id, evicted.src, evicted.dst, now,
                        static_cast<double>(evicted.remaining.count));
  }
  return id;
}

void FlowLifecycle::apply_decision(const std::vector<FlowId>& selected,
                                   double now) {
  const bool counting = obs::enabled();
  if (tracer_ == nullptr && !counting) {
    return;
  }
  const perf::ScopedPhase phase(obs::Phase::kLifecycleApply);
  BASRPT_ASSERT(voqs_ != nullptr,
                "apply_decision needs an attached VoqMatrix");
  mark_selected(selected);
  std::int64_t preempted = 0;
  for (const FlowId id : prev_selected_) {
    if (is_selected(id)) {
      continue;  // still selected
    }
    if (!voqs_->contains(id)) {
      continue;  // completed, not preempted
    }
    ++preempted;
    if (tracer_ != nullptr) {
      const queueing::Flow& f = voqs_->flow(id);
      tracer_->on_preemption(f.id, f.src, f.dst, now,
                             static_cast<double>(f.size.count),
                             static_cast<double>(f.remaining.count));
    }
  }
  if (counting) {
    resolve_metrics();
    preemptions_->add(preempted);
  }
  if (tracer_ != nullptr) {
    for (const FlowId id : selected) {
      const queueing::Flow& f = voqs_->flow(id);
      tracer_->on_service(f.id, f.src, f.dst, now,
                          static_cast<double>(f.size.count),
                          static_cast<double>(f.remaining.count));
    }
  }
  prev_selected_.assign(selected.begin(), selected.end());
}

void FlowLifecycle::mark_selected(const std::vector<FlowId>& selected) {
  ++stamp_;
  if (marks_.size() < 2 * selected.size() || marks_.empty()) {
    marks_.assign(std::bit_ceil(std::max<std::size_t>(16, 2 * selected.size())),
                  Mark{});
  }
  const std::size_t mask = marks_.size() - 1;
  for (const FlowId id : selected) {
    std::size_t pos = static_cast<std::size_t>(id) & mask;
    while (marks_[pos].stamp == stamp_) {
      pos = (pos + 1) & mask;
    }
    marks_[pos] = {id, stamp_};
  }
}

bool FlowLifecycle::is_selected(FlowId id) const {
  const std::size_t mask = marks_.size() - 1;
  for (std::size_t pos = static_cast<std::size_t>(id) & mask;
       marks_[pos].stamp == stamp_; pos = (pos + 1) & mask) {
    if (marks_[pos].id == id) {
      return true;
    }
  }
  return false;
}

void FlowLifecycle::record_decision(std::size_t candidates,
                                    std::size_t selected) {
  if (!obs::enabled()) {
    return;
  }
  resolve_metrics();
  decisions_->add(1);
  candidates_->add(candidates);
  matching_size_->add(selected);
}

void FlowLifecycle::resolve_metrics() {
  if (decisions_ != nullptr) {
    return;
  }
  obs::Registry& registry = obs::Registry::active();
  decisions_ = &registry.counter("sched.decisions");
  preemptions_ = &registry.counter("sched.preemptions");
  candidates_ = &registry.histogram("sched.candidates");
  matching_size_ = &registry.histogram("sched.matching_size");
}

FlowLifecycle::State FlowLifecycle::state() const {
  return {next_id_,     flows_arrived_, flows_completed_,
          flows_requeued_, bytes_arrived_, prev_selected_};
}

void FlowLifecycle::restore(const State& s) {
  next_id_ = s.next_id;
  flows_arrived_ = s.flows_arrived;
  flows_completed_ = s.flows_completed;
  flows_requeued_ = s.flows_requeued;
  bytes_arrived_ = s.bytes_arrived;
  prev_selected_ = s.prev_selected;
}

void FlowLifecycle::note_service(FlowId id, PortId src, PortId dst,
                                 double now, Bytes size, Bytes remaining) {
  if (tracer_ != nullptr) {
    tracer_->on_service(id, src, dst, now,
                        static_cast<double>(size.count),
                        static_cast<double>(remaining.count));
  }
}

void FlowLifecycle::record_completion(stats::FlowClass cls, FlowId id,
                                      PortId src, PortId dst, Bytes size,
                                      SimTime fct, double trace_time) {
  fct_.record(cls, fct, size);
  ++flows_completed_;
  if (tracer_ != nullptr) {
    tracer_->on_completion(id, src, dst, trace_time,
                           static_cast<double>(size.count));
  }
}

void FlowLifecycle::record_completion_with_ideal(
    stats::FlowClass cls, FlowId id, PortId src, PortId dst, Bytes size,
    SimTime fct, SimTime ideal, double trace_time) {
  fct_.record_with_ideal(cls, fct, size, ideal);
  ++flows_completed_;
  if (tracer_ != nullptr) {
    tracer_->on_completion(id, src, dst, trace_time,
                           static_cast<double>(size.count));
  }
}

}  // namespace basrpt::fabric
