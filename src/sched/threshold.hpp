// Backlog-threshold SRPT — the motivation strategy of Fig. 2.
//
// "The backlog-aware strategy just priorities flows in the backlog
// exceeding a certain threshold and other flows are still scheduled
// according to SRPT." Flows whose VOQ backlog exceeds the threshold form
// a high-priority class (ordered by remaining size among themselves);
// everything else is plain SRPT below them.
#pragma once

#include "matching/greedy.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::sched {

class ThresholdSrptScheduler final : public Scheduler {
 public:
  /// `threshold_packets`: VOQ backlog (in packets) beyond which the VOQ's
  /// flows are promoted.
  explicit ThresholdSrptScheduler(double threshold_packets);

  std::string name() const override;
  bool needs_arrival_lane() const override { return false; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

  double threshold() const { return threshold_; }

 private:
  // Two-class scoring: promoted VOQs sort strictly before everything
  // else, each class internally ordered by remaining size. The class
  // offset must dominate any remaining size; sizes are bounded by 50 MB
  // (~3.4e4 packets), so 1e12 packets is a safe separator.
  static constexpr double kClassOffset = 1e12;

  double threshold_;
  KeyLane keys_{simd::KeyOp::kThresholdSrpt, kClassOffset};
  matching::GreedyMatcher matcher_;
};

}  // namespace basrpt::sched
