// MaxWeight matching scheduler (Tassiulas–Ephremides).
//
// Selects the matching maximizing Σ X_ij R_ij via the Hungarian
// algorithm — the classical throughput-optimal policy for input-queued
// switches. It is BASRPT's V = 0 extreme computed exactly instead of
// greedily, and serves as the stability gold standard in the ablation
// benches (stable, but indifferent to flow sizes, hence poor FCT).
#pragma once

#include "sched/scheduler.hpp"

namespace basrpt::sched {

class MaxWeightScheduler final : public Scheduler {
 public:
  std::string name() const override { return "maxweight"; }
  bool needs_arrival_lane() const override { return false; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

 private:
  std::vector<std::vector<double>> weights_;
  std::vector<std::vector<FlowId>> flow_at_;
};

}  // namespace basrpt::sched
