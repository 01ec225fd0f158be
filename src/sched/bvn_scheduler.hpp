// Randomized Birkhoff–von-Neumann scheduler — the α* construction from
// the proof of Theorem 1.
//
// Given the (admissible) arrival-rate matrix Λ, complete it to a doubly
// stochastic matrix, decompose M = Σ u(σ)·M(σ), and on each decision draw
// permutation σ with probability u(σ). Every VOQ is then served at rate
// >= λ_ij regardless of backlogs, which guarantees stability; within a
// matched VOQ the shortest flow is served. Backlog-oblivious by
// construction (the proof relies on E[ȳ*|X] = E[ȳ*]).
#pragma once

#include "common/rng.hpp"
#include "matching/birkhoff.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::sched {

class BvnScheduler final : public Scheduler {
 public:
  /// `rates[i][j]` in packets/slot (line sums <= 1); completed and
  /// decomposed at construction.
  BvnScheduler(matching::RateMatrix rates, Rng rng);

  std::string name() const override { return "bvn-random"; }
  bool needs_arrival_lane() const override { return false; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

  /// The permutation draws consume the RNG, so mid-run resume must carry
  /// it: state is the raw xoshiro words (common::Rng::state()).
  std::vector<std::uint64_t> checkpoint_state() const override;
  void restore_checkpoint_state(
      const std::vector<std::uint64_t>& state) override;

  const std::vector<matching::BvnTerm>& terms() const { return terms_; }

 private:
  std::vector<matching::BvnTerm> terms_;
  std::vector<double> cumulative_;
  Rng rng_;
};

}  // namespace basrpt::sched
