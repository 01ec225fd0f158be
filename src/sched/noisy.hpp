// Size-estimation noise decorator.
//
// Every SRPT-family design (and the paper, Sec. II-A) assumes flow sizes
// are known a priori. In deployments sizes are estimates (application
// hints, ML predictors), so robustness to mis-estimation is the first
// question a practitioner asks. This decorator multiplies each flow's
// remaining-size estimate by a deterministic per-flow error factor,
// log-uniform in [1/error, error], before handing candidates to the
// wrapped scheduler. Backlogs (which a switch measures directly) are
// left exact. bench_ablation_noise quantifies the FCT/stability impact.
//
// The perturbed lanes persist across decisions. A position's perturbed
// size depends only on its own size and flow id, so on a view that
// continues the chain the copy last saw (matching::LaneChain) only the
// changed positions are copied and perturbed, and the view handed on
// carries the source's change list; any other view is copied whole.
#pragma once

#include "common/rng.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::sched {

class NoisySizeScheduler final : public Scheduler {
 public:
  /// `error` >= 1: maximum multiplicative mis-estimation (1 = exact).
  /// The per-flow factor is fixed for the flow's lifetime (estimation
  /// error does not resample itself every decision).
  NoisySizeScheduler(SchedulerPtr inner, double error, std::uint64_t seed);

  std::string name() const override;
  bool needs_arrival_lane() const override {
    return inner_->needs_arrival_lane();
  }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

  // The per-flow factor is a pure hash of (seed, flow); only the wrapped
  // scheduler can carry checkpointable state.
  std::vector<std::uint64_t> checkpoint_state() const override {
    return inner_->checkpoint_state();
  }
  void restore_checkpoint_state(
      const std::vector<std::uint64_t>& state) override {
    inner_->restore_checkpoint_state(state);
  }

  double error() const { return error_; }

 private:
  double factor_for(FlowId flow) const;

  SchedulerPtr inner_;
  double error_;
  double log_error_;
  std::uint64_t seed_;
  CandidateSoA noisy_;  // lane copy with perturbed shortest_remaining
  matching::LaneChain chain_;
};

}  // namespace basrpt::sched
