// Sampled decision audit (--paranoid).
//
// The greedy schedulers decide from a matching they repair across
// decisions (matching::GreedyMatcher), their key lanes and the noise
// decorator's lane copy are kept the same way, and the candidate cache
// rewrites only what changed. A bug in any of these yields a decision
// that is still a matching, so nothing downstream would notice. This
// forwarding decorator decides every kAuditEvery-th decision again with
// a second scheduler of the same spec, on an untracked copy of the
// view, so that one rebuilds everything from scratch; any difference
// aborts the run with fault::InvariantError naming the decision and
// both selections. One rebuild per kAuditEvery decisions is cheap
// enough to leave on for a paper-scale run.
//
// Schedulers with checkpointable state (a non-empty checkpoint_state(),
// the randomized BvN reference) depend on more than the view, so a
// fresh instance would not reproduce their decisions: they are
// forwarded unaudited.
#pragma once

#include <cstdint>

#include "sched/scheduler.hpp"

namespace basrpt::sched {

class AuditedScheduler final : public Scheduler {
 public:
  static constexpr std::uint64_t kAuditEvery = 1000;

  /// `reference` must be a fresh scheduler of `inner`'s spec.
  AuditedScheduler(SchedulerPtr inner, SchedulerPtr reference);

  std::string name() const override { return inner_->name(); }
  bool needs_arrival_lane() const override {
    return inner_->needs_arrival_lane();
  }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

  std::vector<std::uint64_t> checkpoint_state() const override {
    return inner_->checkpoint_state();
  }
  void restore_checkpoint_state(
      const std::vector<std::uint64_t>& state) override {
    inner_->restore_checkpoint_state(state);
  }

  /// Decisions forwarded and decisions decided again so far.
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t audits() const { return audits_; }

 private:
  SchedulerPtr inner_;
  SchedulerPtr reference_;
  bool audited_;
  std::uint64_t decisions_ = 0;
  std::uint64_t audits_ = 0;
  CandidateSoA copy_;  // untracked copy of an audited view
  Decision check_;
};

}  // namespace basrpt::sched
