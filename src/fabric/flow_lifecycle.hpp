// One implementation of the flow lifecycle shared by all three
// simulators (switchsim, flowsim, pktsim): admission (flow-id
// allocation, arrival accounting, VOQ insertion, tracer notification),
// decision application (preemption counting and preemption /
// first-service tracing against the previous selection), per-decision
// work metrics, and completion recording (FCT aggregation + tracer
// notification).
//
// Before this class each simulator duplicated the logic, and the two
// matching simulators each carried an O(S²) std::find loop to diff the
// new selection against the previous one. The diff here is a membership
// test in a small open-addressing set of the new selection — O(S) per
// decision, cache-resident, allocation-free in steady state — and
// iterates the previous selection in its original decision order, so
// the emitted preemption events are identical to the old loops'.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "queueing/flow.hpp"
#include "queueing/voq.hpp"
#include "stats/fct.hpp"

namespace basrpt::fabric {

using queueing::FlowId;
using queueing::PortId;

/// Everything a simulator knows about a flow at admission time. The
/// slotted model passes packets as bytes (1 byte == 1 packet) and the
/// slot index as `arrival.seconds`, exactly as its VoqMatrix does.
struct Admission {
  PortId src = 0;
  PortId dst = 0;
  Bytes size{};
  SimTime arrival{};
  stats::FlowClass cls = stats::FlowClass::kBackground;
};

class FlowLifecycle {
 public:
  /// `voqs` may be null for simulators that keep their own flow table
  /// (pktsim); admission then only allocates ids and accounts arrivals,
  /// and apply_decision must not be called. `tracer` null disables all
  /// tracing at one branch per hook.
  FlowLifecycle(queueing::VoqMatrix* voqs, stats::FctAggregator& fct,
                obs::FlowTracer* tracer);

  /// Forwards to the tracer's begin_run (id scoping across runs).
  void begin_run();

  /// Admits one flow: allocates the next id, bumps the arrival
  /// counters, inserts into the VoqMatrix when attached, and notifies
  /// the tracer. Returns the allocated id.
  FlowId admit(const Admission& a);

  /// Re-admits an evicted flow (fault burst re-arrival): the flow is
  /// reborn under a fresh id carrying only its remaining bytes, with
  /// `now` as its arrival. Deliberately does NOT bump the arrival
  /// counters — the original admit() already accounted the flow, and a
  /// requeue moves bytes, it does not create them — so conservation
  /// (delivered + left == arrived) holds across fault injection. The
  /// caller must already have removed the flow from the VoqMatrix.
  /// Traces as a preemption followed by an arrival. Returns the new id.
  FlowId requeue(const queueing::Flow& evicted, double now);

  /// Applies a new scheduling decision: flows from the previous
  /// selection that are still queued but absent from `selected` are
  /// preempted — counted into `sched.preemptions` when observability is
  /// on, traced (in previous-decision order) when a tracer is attached —
  /// then every selected flow is traced as served (the tracer keeps only
  /// the first service per flow). No-op with neither. Requires an
  /// attached VoqMatrix.
  void apply_decision(const std::vector<FlowId>& selected, double now);

  /// Records one scheduler decision at the simulator's decide call site
  /// when observability is on: the `sched.decisions` counter and the
  /// `sched.candidates` / `sched.matching_size` histograms.
  void record_decision(std::size_t candidates, std::size_t selected);

  /// Tracer service hook for simulators without a matching decision
  /// (pktsim's per-packet sender choice). No-op without a tracer.
  void note_service(FlowId id, PortId src, PortId dst, double now,
                    Bytes size, Bytes remaining);

  /// Records one completion: FCT aggregation, completion counter,
  /// tracer notification at `trace_time` (the caller's clock — slots or
  /// seconds).
  void record_completion(stats::FlowClass cls, FlowId id, PortId src,
                         PortId dst, Bytes size, SimTime fct,
                         double trace_time);

  /// Like record_completion, but also tracks slowdown = fct / ideal.
  void record_completion_with_ideal(stats::FlowClass cls, FlowId id,
                                    PortId src, PortId dst, Bytes size,
                                    SimTime fct, SimTime ideal,
                                    double trace_time);

  std::int64_t flows_arrived() const { return flows_arrived_; }
  std::int64_t flows_completed() const { return flows_completed_; }
  std::int64_t flows_requeued() const { return flows_requeued_; }
  Bytes bytes_arrived() const { return bytes_arrived_; }
  bool tracing() const { return tracer_ != nullptr; }

  /// Checkpointable image of the lifecycle tables. `prev_selected`
  /// matters: the first post-resume decision diffs against it, and the
  /// preemption events it emits must match the uninterrupted run's.
  struct State {
    FlowId next_id = 0;
    std::int64_t flows_arrived = 0;
    std::int64_t flows_completed = 0;
    std::int64_t flows_requeued = 0;
    Bytes bytes_arrived{};
    std::vector<FlowId> prev_selected;
  };
  State state() const;
  void restore(const State& s);

 private:
  queueing::VoqMatrix* voqs_;
  stats::FctAggregator& fct_;
  obs::FlowTracer* tracer_;

  FlowId next_id_ = 0;
  std::int64_t flows_arrived_ = 0;
  std::int64_t flows_completed_ = 0;
  std::int64_t flows_requeued_ = 0;
  Bytes bytes_arrived_{};

  /// Resolves the decision metrics in obs::Registry::active() on first
  /// use, so simulators that never decide (pktsim) name none.
  void resolve_metrics();

  /// Diff scratch: loads `selected` into marks_, an open-addressing set
  /// (linear probing, at most half full) whose live entries carry the
  /// current stamp_, so it never needs clearing. 64-bit stamps never
  /// wrap.
  void mark_selected(const std::vector<FlowId>& selected);
  bool is_selected(FlowId id) const;

  struct Mark {
    FlowId id = 0;
    std::uint64_t stamp = 0;
  };

  std::vector<FlowId> prev_selected_;  // in decision order
  std::vector<Mark> marks_;
  std::uint64_t stamp_ = 0;
  obs::Counter* decisions_ = nullptr;
  obs::Counter* preemptions_ = nullptr;
  obs::LatencyHistogram* candidates_ = nullptr;
  obs::LatencyHistogram* matching_size_ = nullptr;
};

}  // namespace basrpt::fabric
