#include "stats/fct.hpp"

#include "common/assert.hpp"

namespace basrpt::stats {

std::string to_string(FlowClass c) {
  switch (c) {
    case FlowClass::kQuery:
      return "query";
    case FlowClass::kBackground:
      return "background";
  }
  return "?";
}

void FctAggregator::record(FlowClass cls, SimTime fct, Bytes size) {
  BASRPT_ASSERT(fct.seconds >= 0.0, "negative FCT");
  BASRPT_ASSERT(size.count > 0, "completed flow must have positive size");
  PerClass& entry = per_class_[cls];
  entry.moments.add(fct.seconds);
  entry.percentiles.add(fct.seconds);
  bytes_completed_ += size;
}

void FctAggregator::record_with_ideal(FlowClass cls, SimTime fct,
                                      Bytes size, SimTime ideal) {
  BASRPT_ASSERT(ideal.seconds > 0.0, "ideal FCT must be positive");
  record(cls, fct, size);
  PerClass& entry = per_class_[cls];
  const double slowdown = fct.seconds / ideal.seconds;
  entry.slowdown_moments.add(slowdown);
  entry.slowdown_percentiles.add(slowdown);
}

FctSummary FctAggregator::summary(FlowClass cls) const {
  FctSummary out;
  const auto it = per_class_.find(cls);
  if (it == per_class_.end() || it->second.moments.count() == 0) {
    return out;
  }
  out.completed = it->second.moments.count();
  out.mean_seconds = it->second.moments.mean();
  out.p99_seconds = it->second.percentiles.p99();
  out.max_seconds = it->second.moments.max();
  if (it->second.slowdown_moments.count() > 0) {
    out.mean_slowdown = it->second.slowdown_moments.mean();
    out.p99_slowdown = it->second.slowdown_percentiles.p99();
  }
  return out;
}

std::int64_t FctAggregator::completed(FlowClass cls) const {
  const auto it = per_class_.find(cls);
  return it == per_class_.end() ? 0 : it->second.moments.count();
}

std::int64_t FctAggregator::completed_total() const {
  std::int64_t total = 0;
  for (const auto& [cls, entry] : per_class_) {
    total += entry.moments.count();
  }
  return total;
}

FctAggregator::State FctAggregator::state() const {
  State out;
  out.bytes_completed = bytes_completed_;
  for (const auto& [cls, entry] : per_class_) {  // std::map → FlowClass order
    ClassState c;
    c.cls = cls;
    c.moments = entry.moments.state();
    c.fct_samples = entry.percentiles.samples();
    c.slowdown_moments = entry.slowdown_moments.state();
    c.slowdown_samples = entry.slowdown_percentiles.samples();
    out.classes.push_back(std::move(c));
  }
  return out;
}

void FctAggregator::restore(const State& s) {
  per_class_.clear();
  bytes_completed_ = s.bytes_completed;
  for (const ClassState& c : s.classes) {
    PerClass& entry = per_class_[c.cls];
    entry.moments.restore(c.moments);
    entry.percentiles.restore(c.fct_samples);
    entry.slowdown_moments.restore(c.slowdown_moments);
    entry.slowdown_percentiles.restore(c.slowdown_samples);
  }
}

}  // namespace basrpt::stats
