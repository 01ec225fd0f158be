#include "sched/candidate_view.hpp"

#include <bit>

#include "common/assert.hpp"
#include "perf/profiler.hpp"

namespace basrpt::sched {

const FlowId* CandidateView::oldest_flow() const {
  BASRPT_REQUIRE(oldest_flow_ != nullptr,
                 "candidate view has no arrival lane — the candidate "
                 "builder was configured without it (scheduler's "
                 "needs_arrival_lane() not honored?)");
  return oldest_flow_;
}

const double* CandidateView::oldest_arrival() const {
  BASRPT_REQUIRE(oldest_arrival_ != nullptr,
                 "candidate view has no arrival lane — the candidate "
                 "builder was configured without it (scheduler's "
                 "needs_arrival_lane() not honored?)");
  return oldest_arrival_;
}

CandidateView CandidateView::from_aos(const std::vector<VoqCandidate>& aos,
                                      CandidateSoA& storage,
                                      bool with_arrival) {
  storage.assign_from_aos(aos, with_arrival);
  return storage.view();
}

void CandidateSoA::clear() {
  ingress.clear();
  egress.clear();
  backlog.clear();
  shortest_flow.clear();
  shortest_remaining.clear();
  oldest_flow.clear();
  oldest_arrival.clear();
}

void CandidateSoA::resize_lanes(std::size_t n) {
  ingress.resize(n);
  egress.resize(n);
  backlog.resize(n);
  shortest_flow.resize(n);
  shortest_remaining.resize(n);
  oldest_flow.resize(with_arrival ? n : 0);
  oldest_arrival.resize(with_arrival ? n : 0);
}

void CandidateSoA::assign_from_aos(const std::vector<VoqCandidate>& aos,
                                   bool arrival) {
  with_arrival = arrival;
  resize_lanes(aos.size());
  for (std::size_t k = 0; k < aos.size(); ++k) {
    const VoqCandidate& c = aos[k];
    ingress[k] = c.ingress;
    egress[k] = c.egress;
    backlog[k] = c.backlog;
    shortest_flow[k] = c.shortest_flow;
    shortest_remaining[k] = c.shortest_remaining;
    if (arrival) {
      oldest_flow[k] = c.oldest_flow;
      oldest_arrival[k] = c.oldest_arrival;
    }
  }
}

void CandidateSoA::assign_from_view(const CandidateView& v) {
  const std::size_t n = v.size();
  ingress.assign(v.ingress(), v.ingress() + n);
  egress.assign(v.egress(), v.egress() + n);
  backlog.assign(v.backlog(), v.backlog() + n);
  shortest_flow.assign(v.shortest_flow(), v.shortest_flow() + n);
  shortest_remaining.assign(v.shortest_remaining(),
                            v.shortest_remaining() + n);
  with_arrival = v.has_arrival_lane();
  if (with_arrival) {
    oldest_flow.assign(v.oldest_flow(), v.oldest_flow() + n);
    oldest_arrival.assign(v.oldest_arrival(), v.oldest_arrival() + n);
  } else {
    oldest_flow.clear();
    oldest_arrival.clear();
  }
}

void CandidateSoA::assign_at(const CandidateView& v, std::size_t k) {
  ingress[k] = v.ingress()[k];
  egress[k] = v.egress()[k];
  backlog[k] = v.backlog()[k];
  shortest_flow[k] = v.shortest_flow()[k];
  shortest_remaining[k] = v.shortest_remaining()[k];
  if (with_arrival) {
    oldest_flow[k] = v.oldest_flow()[k];
    oldest_arrival[k] = v.oldest_arrival()[k];
  }
}

CandidateView CandidateSoA::view(const matching::LaneChanges& changes) const {
  const std::size_t n = ingress.size();
  const bool core_consistent =
      egress.size() == n && backlog.size() == n &&
      shortest_flow.size() == n && shortest_remaining.size() == n;
  const std::size_t arrival_n = with_arrival ? n : 0;
  BASRPT_REQUIRE(core_consistent && oldest_flow.size() == arrival_n &&
                     oldest_arrival.size() == arrival_n,
                 "candidate SoA lanes have mismatched lengths");
  CandidateView v;
  v.size_ = n;
  v.ingress_ = ingress.data();
  v.egress_ = egress.data();
  v.backlog_ = backlog.data();
  v.shortest_flow_ = shortest_flow.data();
  v.shortest_remaining_ = shortest_remaining.data();
  if (with_arrival) {
    v.oldest_flow_ = oldest_flow.data();
    v.oldest_arrival_ = oldest_arrival.data();
  }
  v.changes_ = changes;
  return v;
}

const double* KeyLane::update(double p0, const CandidateView& view) {
  perf::ScopedPhase phase(obs::Phase::kScoreKernel);
  const matching::LaneChanges& changes = view.changes();
  const std::uint64_t context = std::bit_cast<std::uint64_t>(p0);
  const std::size_t n = view.size();
  const matching::LaneChain::Step step = chain_.step(changes, context);
  chain_.reset();
  keys_.resize(n);
  if (step == matching::LaneChain::Step::kRebuild) {
    simd::compute_keys(op_, p0, p1_, view.shortest_remaining(),
                       view.backlog(), n, keys_.data());
    phase.add_work(n);
  } else if (step == matching::LaneChain::Step::kNext) {
    simd::compute_keys_at(op_, p0, p1_, view.shortest_remaining(),
                          view.backlog(), changes.changed,
                          changes.changed_count, keys_.data());
    phase.add_work(changes.changed_count);
  }
  chain_.commit(changes, context);
  return keys_.data();
}

}  // namespace basrpt::sched
