// Oldest-first (FCFS) matching scheduler.
//
// Size-oblivious baseline: greedy maximal matching in non-decreasing
// arrival time. Not in the paper's evaluation, but the natural "no flow
// information" reference point for the FCT comparisons and a sanity
// check that SRPT's delay advantage reproduces.
#pragma once

#include "matching/greedy.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::sched {

class FifoScheduler final : public Scheduler {
 public:
  std::string name() const override { return "fifo"; }
  // The only built-in scheduler that reads the per-VOQ FIFO head, i.e.
  // the view's arrival lanes (the Scheduler default is already
  // conservative; spelled out for emphasis).
  bool needs_arrival_lane() const override { return true; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

 private:
  matching::GreedyMatcher matcher_;
};

}  // namespace basrpt::sched
