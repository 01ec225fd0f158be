#include "sched/scheduler.hpp"

#include <unordered_set>

#include "common/assert.hpp"

namespace basrpt::sched {

void Scheduler::restore_checkpoint_state(
    const std::vector<std::uint64_t>& state) {
  BASRPT_REQUIRE(state.empty(),
                 "checkpoint carries scheduler state but scheduler '" +
                     name() + "' is stateless — scheduler mismatch on "
                     "resume");
}

void fill_candidate(const queueing::VoqMatrix& voqs, PortId i, PortId j,
                    double unit_bytes, bool with_arrival,
                    VoqCandidate& out) {
  out.ingress = i;
  out.egress = j;
  out.backlog = static_cast<double>(voqs.backlog(i, j).count) / unit_bytes;

  // The ordered-index head entries carry (key, id) directly: the SRPT
  // key IS the remaining size and the arrival key IS the oldest arrival,
  // so no candidate field touches a flow record.
  const auto& se = voqs.shortest_entry(i, j);
  BASRPT_ASSERT(se.id != queueing::kInvalidFlow,
                "non-empty VOQ without flows");
  out.shortest_flow = se.id;
  out.shortest_remaining = static_cast<double>(se.key) / unit_bytes;

  if (with_arrival) {
    const auto& oe = voqs.oldest_entry(i, j);
    out.oldest_flow = oe.id;
    out.oldest_arrival = oe.key;
  } else {
    out.oldest_flow = queueing::kInvalidFlow;
    out.oldest_arrival = 0.0;
  }
}

std::vector<VoqCandidate> build_candidates(const queueing::VoqMatrix& voqs,
                                           double unit_bytes,
                                           bool with_arrival) {
  BASRPT_ASSERT(unit_bytes > 0.0, "unit must be positive");
  std::vector<VoqCandidate> candidates;
  candidates.reserve(voqs.non_empty_voqs());
  voqs.for_each_non_empty_voq([&](PortId i, PortId j) {
    VoqCandidate c;
    fill_candidate(voqs, i, j, unit_bytes, with_arrival, c);
    candidates.push_back(c);
  });
  return candidates;
}

bool decision_is_matching(const Decision& decision,
                          const queueing::VoqMatrix& voqs) {
  std::unordered_set<PortId> ingress_used;
  std::unordered_set<PortId> egress_used;
  std::unordered_set<FlowId> seen;
  for (const FlowId id : decision.selected) {
    if (!voqs.contains(id) || !seen.insert(id).second) {
      return false;
    }
    const queueing::Flow& f = voqs.flow(id);
    if (!ingress_used.insert(f.src).second) {
      return false;
    }
    if (!egress_used.insert(f.dst).second) {
      return false;
    }
  }
  return true;
}

}  // namespace basrpt::sched
