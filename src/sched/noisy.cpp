#include "sched/noisy.hpp"

#include <cmath>
#include <cstdio>

#include "common/assert.hpp"

namespace basrpt::sched {

NoisySizeScheduler::NoisySizeScheduler(SchedulerPtr inner, double error,
                                       std::uint64_t seed)
    : inner_(std::move(inner)),
      error_(error),
      log_error_(std::log(error)),
      seed_(seed) {
  BASRPT_REQUIRE(inner_ != nullptr, "noisy decorator needs a scheduler");
  BASRPT_REQUIRE(error >= 1.0, "error factor must be >= 1 (1 = exact)");
}

std::string NoisySizeScheduler::name() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "noisy(x%g)+%s", error_,
                inner_->name().c_str());
  return buf;
}

double NoisySizeScheduler::factor_for(FlowId flow) const {
  // Deterministic per-flow draw: hash (seed, flow) into a uniform in
  // [0, 1), then map log-uniformly onto [1/error, error].
  std::uint64_t state = seed_ ^ (0x9E3779B97F4A7C15ull *
                                 (static_cast<std::uint64_t>(flow) + 1));
  const double u = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return std::exp((2.0 * u - 1.0) * log_error_);
}

void NoisySizeScheduler::decide_into(PortId n_ports,
                                     const CandidateView& candidates,
                                     Decision& out) {
  if (error_ <= 1.0 + 1e-12) {
    inner_->decide_into(n_ports, candidates, out);
    return;
  }
  const matching::LaneChanges& changes = candidates.changes();
  const matching::LaneChain::Step step = chain_.step(changes);
  chain_.reset();
  if (step == matching::LaneChain::Step::kRebuild) {
    noisy_.assign_from_view(candidates);  // lane copies reuse capacity
    for (std::size_t k = 0; k < noisy_.shortest_remaining.size(); ++k) {
      noisy_.shortest_remaining[k] *= factor_for(noisy_.shortest_flow[k]);
    }
  } else if (step == matching::LaneChain::Step::kNext) {
    noisy_.resize_lanes(candidates.size());
    for (std::size_t c = 0; c < changes.changed_count; ++c) {
      const std::size_t k = changes.changed[c];
      noisy_.assign_at(candidates, k);
      noisy_.shortest_remaining[k] *= factor_for(noisy_.shortest_flow[k]);
    }
  }
  chain_.commit(changes);
  // The perturbed lane at each position depends only on that position's
  // shortest_remaining and shortest_flow, so the positions the source
  // did not rewrite are unchanged here too: its change list still holds.
  inner_->decide_into(n_ports, noisy_.view(changes), out);
}

}  // namespace basrpt::sched
