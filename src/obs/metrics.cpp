#include "obs/metrics.hpp"

#include <cmath>

namespace basrpt::obs {

bool detail::g_enabled = false;

namespace {
/// Per-thread registry override; null means "record into global()".
/// Written only by ScopedRegistryBind on the owning thread.
thread_local Registry* t_bound_registry = nullptr;
}  // namespace

void set_enabled(bool on) { detail::g_enabled = on; }

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kEventDispatch:
      return "event_dispatch";
    case Phase::kCalendarPush:
      return "calendar_push";
    case Phase::kCalendarPop:
      return "calendar_pop";
    case Phase::kDecide:
      return "decide";
    case Phase::kCandidateRepack:
      return "candidate_repack";
    case Phase::kLifecycleApply:
      return "lifecycle_apply";
    case Phase::kCheckpointWrite:
      return "checkpoint_write";
    case Phase::kScoreKernel:
      return "score_kernel";
    case Phase::kMatchSort:
      return "match_sort";
    case Phase::kAcceptScan:
      return "accept_scan";
    case Phase::kRunChunk:
      return "run_chunk";
    case Phase::kFluidAdvance:
      return "fluid_advance";
    case Phase::kRateSolve:
      return "rate_solve";
    case Phase::kMatchRepair:
      return "match_repair";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

void PhaseStats::merge_from(const PhaseStats& other) {
  calls += other.calls;
  work += other.work;
  total_ns += other.total_ns;
  self_ns += other.self_ns;
  allocs += other.allocs;
  alloc_bytes += other.alloc_bytes;
  ns.merge_from(other.ns);
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry& Registry::active() {
  return t_bound_registry != nullptr ? *t_bound_registry : global();
}

std::uint64_t Registry::phase_self_ns() const {
  std::uint64_t total = 0;
  for (const PhaseStats& row : phases_) {
    total += row.self_ns;
  }
  return total;
}

bool Registry::empty() const {
  for (const PhaseStats& row : phases_) {
    if (row.calls != 0 || row.allocs != 0) {
      return false;
    }
  }
  return counters_.empty() && gauges_.empty() && histograms_.empty() &&
         notes_.empty() && spans_.empty() && spans_dropped_ == 0;
}

void Registry::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  notes_.clear();
  phases_.fill(PhaseStats{});
  spans_.clear();
  spans_dropped_ = 0;
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, counter] : other.counters_) {
    counters_[name].merge_from(counter);
  }
  for (const auto& [name, gauge] : other.gauges_) {
    gauges_[name].merge_from(gauge);
  }
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].merge_from(histogram);
  }
  for (const auto& [name, note] : other.notes_) {
    notes_[name] = note;  // last write wins, like Gauge values
  }
  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    phases_[k].merge_from(other.phases_[k]);
  }
  for (const Span& span : other.spans_) {
    add_span(span);
  }
  spans_dropped_ += other.spans_dropped_;
}

ScopedRegistryBind::ScopedRegistryBind(Registry* shard)
    : previous_(t_bound_registry) {
  if (shard != nullptr) {
    t_bound_registry = shard;
  }
}

ScopedRegistryBind::~ScopedRegistryBind() { t_bound_registry = previous_; }

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  if (q <= 0.0) {
    return static_cast<double>(min());
  }
  if (q >= 1.0) {
    return static_cast<double>(max_);
  }
  // Rank of the q-th sample (1-based), then walk the buckets.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    seen += counts_[k];
    if (seen >= rank) {
      const double lo = static_cast<double>(bucket_lower(k));
      const double hi = static_cast<double>(
          k + 1 < kBuckets ? bucket_lower(k + 1) : max_ + 1);
      // Geometric midpoint; clamp into the observed range so tiny
      // histograms don't report values outside [min, max].
      const double mid = lo > 0.0 ? std::sqrt(lo * hi) : hi / 2.0;
      const double lo_clamp = static_cast<double>(min());
      const double hi_clamp = static_cast<double>(max_);
      return std::min(std::max(mid, lo_clamp), hi_clamp);
    }
  }
  return static_cast<double>(max_);
}

}  // namespace basrpt::obs
