#include "sched/fast_basrpt.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace basrpt::sched {

FastBasrptScheduler::FastBasrptScheduler(double v) : v_(v) {
  BASRPT_REQUIRE(v >= 0.0, "BASRPT weight V must be non-negative");
}

std::string FastBasrptScheduler::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "fast-basrpt(V=%g)", v_);
  return buf;
}

void FastBasrptScheduler::decide_into(PortId n_ports,
                                      const CandidateView& candidates,
                                      Decision& out) {
  // The per-VOQ SRPT representative also minimizes this key within its
  // VOQ (the backlog term is common to all the VOQ's flows).
  const double* keys =
      keys_.update(v_ / static_cast<double>(n_ports), candidates);
  matcher_.match_lanes_into(keys, candidates.ingress(), candidates.egress(),
                            candidates.shortest_flow(), candidates.size(),
                            n_ports, n_ports, candidates.changes(),
                            out.selected);
}

}  // namespace basrpt::sched
