// Fast BASRPT (Algorithm 1 of the paper) — the headline contribution.
//
// Greedy flow selection in non-decreasing order of
//     (V / N) * remaining_size - located_queue_length,
// skipping flows whose ingress or egress port is already claimed. Summing
// the key over the <= N selected flows approximates the exact BASRPT
// objective V*ȳ(t) − Σ X_ij R_ij (N stands in for the unknown number of
// selected flows n(t)). Larger V weighs FCT minimization more; V → ∞
// degenerates to SRPT, V = 0 degenerates to longest-queue-first.
#pragma once

#include "matching/greedy.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::sched {

class FastBasrptScheduler final : public Scheduler {
 public:
  /// `v` is the paper's importance weight (>= 0), in packet units.
  explicit FastBasrptScheduler(double v);

  std::string name() const override;
  bool needs_arrival_lane() const override { return false; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

  double v() const { return v_; }

 private:
  double v_;
  KeyLane keys_{simd::KeyOp::kFastBasrpt, 0.0};
  matching::GreedyMatcher matcher_;
};

}  // namespace basrpt::sched
