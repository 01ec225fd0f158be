#include "sched/threshold.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace basrpt::sched {

ThresholdSrptScheduler::ThresholdSrptScheduler(double threshold_packets)
    : threshold_(threshold_packets) {
  BASRPT_REQUIRE(threshold_packets > 0.0, "threshold must be positive");
}

std::string ThresholdSrptScheduler::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "threshold-srpt(T=%g)", threshold_);
  return buf;
}

void ThresholdSrptScheduler::decide_into(PortId n_ports,
                                         const CandidateView& candidates,
                                         Decision& out) {
  const double* keys = keys_.update(threshold_, candidates);
  matcher_.match_lanes_into(keys, candidates.ingress(), candidates.egress(),
                            candidates.shortest_flow(), candidates.size(),
                            n_ports, n_ports, candidates.changes(),
                            out.selected);
}

}  // namespace basrpt::sched
