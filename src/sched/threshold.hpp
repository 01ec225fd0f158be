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
  double threshold_;
  std::vector<double> keys_;
  matching::GreedyMatcher matcher_;
};

}  // namespace basrpt::sched
