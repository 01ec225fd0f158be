#include "sched/distributed_basrpt.hpp"

#include <cstdio>
#include <limits>

#include "common/assert.hpp"
#include "perf/profiler.hpp"
#include "simd/kernels.hpp"

namespace basrpt::sched {

DistributedBasrptScheduler::DistributedBasrptScheduler(double v, int rounds)
    : v_(v), rounds_(rounds) {
  BASRPT_REQUIRE(v >= 0.0, "BASRPT weight V must be non-negative");
  BASRPT_REQUIRE(rounds >= 1, "need at least one request/grant round");
}

std::string DistributedBasrptScheduler::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "dist-basrpt(V=%g r=%d)", v_, rounds_);
  return buf;
}

void DistributedBasrptScheduler::decide_into(PortId n_ports,
                                             const CandidateView& candidates,
                                             Decision& out) {
  out.selected.clear();
  if (candidates.empty()) {
    return;
  }
  const double weight = v_ / static_cast<double>(n_ports);
  const auto n = static_cast<std::size_t>(n_ports);
  const std::size_t n_cand = candidates.size();
  const PortId* cand_ingress = candidates.ingress();
  const PortId* cand_egress = candidates.egress();
  const FlowId* cand_flow = candidates.shortest_flow();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Local state per ingress port: its candidate VOQs (index into the
  // view). Each ingress only ever inspects its own VOQs — the
  // information a real distributed endpoint has. The keys are the same
  // fast-BASRPT lane computation the centralized scheduler uses.
  per_ingress_.resize(n);
  for (auto& list : per_ingress_) {
    list.clear();
  }
  key_.resize(n_cand);
  {
    perf::ScopedPhase phase(obs::Phase::kScoreKernel);
    simd::compute_keys(simd::KeyOp::kFastBasrpt, weight, 0.0,
                       candidates.shortest_remaining(), candidates.backlog(),
                       n_cand, key_.data());
  }
  for (std::size_t c = 0; c < n_cand; ++c) {
    per_ingress_[static_cast<std::size_t>(cand_ingress[c])].push_back(c);
  }

  ingress_matched_.assign(n, 0);
  egress_matched_.assign(n, 0);

  for (int round = 0; round < rounds_; ++round) {
    // Request phase: every unmatched ingress picks its best VOQ whose
    // egress is still free and posts a request.
    constexpr std::size_t kNoRequest = static_cast<std::size_t>(-1);
    request_of_.assign(n, kNoRequest);  // per egress: cand
    bool any_request = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (ingress_matched_[i]) {
        continue;
      }
      std::size_t best = kNoRequest;
      double best_key = kInf;
      for (const std::size_t c : per_ingress_[i]) {
        const auto egress = static_cast<std::size_t>(cand_egress[c]);
        if (egress_matched_[egress]) {
          continue;
        }
        // Deterministic tiebreak on flow id keeps runs reproducible.
        if (key_[c] < best_key ||
            (key_[c] == best_key && best != kNoRequest &&
             cand_flow[c] < cand_flow[best])) {
          best = c;
          best_key = key_[c];
        }
      }
      if (best == kNoRequest) {
        continue;
      }
      any_request = true;
      // Grant phase folded in: the egress keeps the lowest-key request.
      const auto egress = static_cast<std::size_t>(cand_egress[best]);
      const std::size_t incumbent = request_of_[egress];
      if (incumbent == kNoRequest || key_[best] < key_[incumbent] ||
          (key_[best] == key_[incumbent] &&
           cand_flow[best] < cand_flow[incumbent])) {
        request_of_[egress] = best;
      }
    }
    if (!any_request) {
      break;
    }
    // Commit grants; each ingress requested at most one egress, so
    // grants never conflict on the ingress side.
    for (std::size_t e = 0; e < n; ++e) {
      const std::size_t c = request_of_[e];
      if (c == static_cast<std::size_t>(-1)) {
        continue;
      }
      const auto ingress = static_cast<std::size_t>(cand_ingress[c]);
      BASRPT_ASSERT(!ingress_matched_[ingress] && !egress_matched_[e],
                    "request/grant produced a conflicting match");
      ingress_matched_[ingress] = 1;
      egress_matched_[e] = 1;
      out.selected.push_back(cand_flow[c]);
    }
  }
}

}  // namespace basrpt::sched
