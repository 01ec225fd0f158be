// Exact BASRPT (Sec. IV-A): traverse all maximal scheduling schemes and
// pick the one minimizing V·ȳ(t) − Σ X_ij R_ij.
//
// The traversal is exponential in the number of ports — the paper's
// stated reason for developing fast BASRPT — so this implementation is
// deliberately guarded to small fabrics. It exists to (a) validate the
// heuristic against the exact optimizer in tests and (b) measure the
// computational gap in bench_sched_micro.
#pragma once

#include "matching/enumerate.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::sched {

class ExactBasrptScheduler final : public Scheduler {
 public:
  /// `max_ports` guards against accidental exponential blow-up.
  explicit ExactBasrptScheduler(double v, PortId max_ports = 10);

  std::string name() const override;
  bool needs_arrival_lane() const override { return false; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

  double v() const { return v_; }

  /// Objective value V·ȳ − ΣX of a set of selected candidates; exposed
  /// for tests comparing schedulers.
  static double objective(double v,
                          const std::vector<VoqCandidate>& selected);

 private:
  double v_;
  PortId max_ports_;
  std::vector<matching::Edge> edges_;
  std::vector<std::uint32_t> by_pair_;  // candidate index per (i, j)
  std::vector<FlowId> selection_;
  std::vector<FlowId> best_selection_;
};

}  // namespace basrpt::sched
