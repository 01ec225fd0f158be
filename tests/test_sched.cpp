// Unit tests for src/sched: candidate building and every scheduler,
// including fast-vs-exact BASRPT agreement and limiting behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "fabric/candidate_cache.hpp"
#include "fault/auditor.hpp"
#include "matching/hungarian.hpp"
#include "obs/metrics.hpp"
#include "queueing/voq.hpp"
#include "sched/audited.hpp"
#include "sched/bvn_scheduler.hpp"
#include "sched/exact_basrpt.hpp"
#include "sched/factory.hpp"
#include "sched/fast_basrpt.hpp"
#include "sched/fifo.hpp"
#include "sched/maxweight.hpp"
#include "sched/srpt.hpp"
#include "sched/threshold.hpp"
#include "switchsim/arrivals.hpp"

namespace basrpt::sched {
namespace {

using queueing::Flow;
using queueing::FlowId;
using queueing::VoqMatrix;

/// Decides over AoS candidates from build_candidates, the reference
/// candidate builder most tests state their inputs with.
Decision decide_aos(Scheduler& scheduler, PortId n_ports,
                    const std::vector<VoqCandidate>& candidates) {
  CandidateSoA soa;
  return scheduler.decide(n_ports, CandidateView::from_aos(candidates, soa));
}

Flow make_flow(FlowId id, PortId src, PortId dst, std::int64_t packets,
               double arrival = 0.0) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = Bytes{packets};
  f.remaining = f.size;
  f.arrival = SimTime{arrival};
  return f;
}

/// Random VOQ state for property-style checks (sizes in packets).
VoqMatrix random_state(PortId n_ports, int n_flows, Rng& rng) {
  VoqMatrix voqs(n_ports);
  for (FlowId id = 0; id < n_flows; ++id) {
    const auto src = static_cast<PortId>(rng.uniform_int(0, n_ports - 1));
    auto dst = static_cast<PortId>(rng.uniform_int(0, n_ports - 2));
    if (dst >= src) {
      ++dst;
    }
    voqs.add_flow(make_flow(id, src, dst, rng.uniform_int(1, 200),
                            rng.uniform01()));
  }
  return voqs;
}

// -------------------------------------------------------- build_candidates

TEST(BuildCandidates, OneEntryPerNonEmptyVoq) {
  VoqMatrix voqs(4);
  voqs.add_flow(make_flow(1, 0, 1, 10));
  voqs.add_flow(make_flow(2, 0, 1, 5));
  voqs.add_flow(make_flow(3, 2, 3, 7));
  const auto candidates = build_candidates(voqs, 1.0);
  ASSERT_EQ(candidates.size(), 2u);
  const auto voq01 = std::find_if(
      candidates.begin(), candidates.end(),
      [](const VoqCandidate& c) { return c.ingress == 0 && c.egress == 1; });
  ASSERT_NE(voq01, candidates.end());
  EXPECT_EQ(voq01->shortest_flow, 2);
  EXPECT_DOUBLE_EQ(voq01->shortest_remaining, 5.0);
  EXPECT_DOUBLE_EQ(voq01->backlog, 15.0);
}

TEST(BuildCandidates, UnitConversionToPackets) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 3000));  // "bytes" now
  const auto candidates = build_candidates(voqs, 1500.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(candidates[0].backlog, 2.0);
  EXPECT_DOUBLE_EQ(candidates[0].shortest_remaining, 2.0);
}

TEST(BuildCandidates, OldestTracksArrival) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1, 5.0));
  voqs.add_flow(make_flow(2, 0, 1, 100, 1.0));
  const auto candidates = build_candidates(voqs, 1.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].shortest_flow, 1);
  EXPECT_EQ(candidates[0].oldest_flow, 2);
  EXPECT_DOUBLE_EQ(candidates[0].oldest_arrival, 1.0);
}

// --------------------------------------------------------- CandidateView

TEST(CandidateView, FromAosReproducesEveryLane) {
  Rng rng(41);
  const VoqMatrix voqs = random_state(8, 60, rng);
  const auto aos = build_candidates(voqs, 1.0, true);
  CandidateSoA storage;
  const CandidateView view = CandidateView::from_aos(aos, storage);
  ASSERT_EQ(view.size(), aos.size());
  ASSERT_TRUE(view.has_arrival_lane());
  for (std::size_t k = 0; k < aos.size(); ++k) {
    EXPECT_EQ(view.ingress()[k], aos[k].ingress);
    EXPECT_EQ(view.egress()[k], aos[k].egress);
    EXPECT_EQ(view.backlog()[k], aos[k].backlog);
    EXPECT_EQ(view.shortest_flow()[k], aos[k].shortest_flow);
    EXPECT_EQ(view.shortest_remaining()[k], aos[k].shortest_remaining);
    EXPECT_EQ(view.oldest_flow()[k], aos[k].oldest_flow);
    EXPECT_EQ(view.oldest_arrival()[k], aos[k].oldest_arrival);
  }
}

TEST(CandidateView, AbsentArrivalLaneThrowsConfigError) {
  Rng rng(42);
  const VoqMatrix voqs = random_state(4, 12, rng);
  const auto aos = build_candidates(voqs, 1.0, false);
  CandidateSoA storage;
  const CandidateView view =
      CandidateView::from_aos(aos, storage, /*with_arrival=*/false);
  EXPECT_FALSE(view.has_arrival_lane());
  EXPECT_THROW(view.oldest_flow(), ConfigError);
  EXPECT_THROW(view.oldest_arrival(), ConfigError);
}

TEST(CandidateView, SoaViewRejectsMismatchedLaneLengths) {
  Rng rng(43);
  const VoqMatrix voqs = random_state(4, 20, rng);
  CandidateSoA soa;
  soa.assign_from_aos(build_candidates(voqs, 1.0, true), true);
  EXPECT_NO_THROW(soa.view());
  soa.backlog.push_back(0.0);
  EXPECT_THROW(soa.view(), ConfigError);
  soa.backlog.pop_back();
  soa.shortest_flow.pop_back();
  EXPECT_THROW(soa.view(), ConfigError);
}

TEST(Srpt, PicksGloballyShortestThenBlocksPorts) {
  // Paper's Sec. III-A description: shortest flow first, then its ports
  // are blocked.
  VoqMatrix voqs(3);
  voqs.add_flow(make_flow(1, 0, 1, 2));    // globally shortest
  voqs.add_flow(make_flow(2, 0, 2, 5));    // blocked: shares ingress 0
  voqs.add_flow(make_flow(3, 2, 1, 4));    // blocked: shares egress 1
  voqs.add_flow(make_flow(4, 1, 2, 100));  // selectable
  SrptScheduler srpt;
  const auto decision = decide_aos(srpt, 3, build_candidates(voqs, 1.0));
  std::set<FlowId> selected(decision.selected.begin(),
                            decision.selected.end());
  EXPECT_EQ(selected, (std::set<FlowId>{1, 4}));
}

TEST(Srpt, DecisionIsMaximalMatching) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    VoqMatrix voqs = random_state(6, 30, rng);
    SrptScheduler srpt;
    const auto decision = decide_aos(srpt, 6, build_candidates(voqs, 1.0));
    EXPECT_TRUE(decision_is_matching(decision, voqs));
    // Maximality: no remaining flow has both ports free.
    std::set<PortId> in_used;
    std::set<PortId> out_used;
    for (FlowId id : decision.selected) {
      in_used.insert(voqs.flow(id).src);
      out_used.insert(voqs.flow(id).dst);
    }
    voqs.for_each_flow([&](const Flow& f) {
      EXPECT_TRUE(in_used.count(f.src) || out_used.count(f.dst))
          << "flow " << f.id << " was addable";
    });
  }
}

TEST(Srpt, IgnoresBacklogEntirely) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 3));
  for (FlowId id = 10; id < 40; ++id) {
    voqs.add_flow(make_flow(id, 1, 0, 5));  // huge opposing backlog
  }
  SrptScheduler srpt;
  const auto decision = decide_aos(srpt, 2, build_candidates(voqs, 1.0));
  // Both VOQs get served (disjoint ports), shortest first regardless of
  // the 30-flow backlog.
  EXPECT_EQ(decision.selected.size(), 2u);
  EXPECT_EQ(decision.selected[0], 1);
}

// ------------------------------------------------------------ fast BASRPT

TEST(FastBasrpt, HugeVDegeneratesToSrpt) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    VoqMatrix voqs = random_state(5, 25, rng);
    SrptScheduler srpt;
    FastBasrptScheduler basrpt(1e12);
    const auto candidates = build_candidates(voqs, 1.0);
    const auto a = decide_aos(srpt, 5, candidates);
    const auto b = decide_aos(basrpt, 5, candidates);
    EXPECT_EQ(std::set<FlowId>(a.selected.begin(), a.selected.end()),
              std::set<FlowId>(b.selected.begin(), b.selected.end()));
  }
}

TEST(FastBasrpt, ZeroVPrefersLongestQueues) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1));  // short flow, short queue
  // Opposing VOQ (1,0): long backlog.
  voqs.add_flow(make_flow(2, 1, 0, 50));
  voqs.add_flow(make_flow(3, 1, 0, 60));
  FastBasrptScheduler basrpt(0.0);
  const auto decision = decide_aos(basrpt, 2, build_candidates(voqs, 1.0));
  // Ports are disjoint so both get served; V=0 ranks VOQ (1,0) first.
  ASSERT_EQ(decision.selected.size(), 2u);
  EXPECT_EQ(decision.selected[0], 2);  // longest queue's shortest flow
}

TEST(FastBasrpt, BacklogOverridesSizeWhenQueueLongEnough) {
  // Key = (V/N)*size − backlog with V=4, N=2: a 1-packet flow in an empty
  // queue scores 2−1=1; a 10-packet flow in a 100-packet queue scores
  // 20−100=−80 and must win the shared egress port.
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1));
  voqs.add_flow(make_flow(2, 1, 1, 10));
  for (FlowId id = 10; id < 19; ++id) {
    voqs.add_flow(make_flow(id, 1, 1, 10));
  }
  FastBasrptScheduler basrpt(4.0);
  const auto decision = decide_aos(basrpt, 2, build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 1u);
  EXPECT_EQ(decision.selected[0], 2);
}

TEST(FastBasrpt, RejectsNegativeV) {
  EXPECT_THROW(FastBasrptScheduler(-1.0), ConfigError);
}

TEST(FastBasrpt, NameEncodesV) {
  EXPECT_EQ(FastBasrptScheduler(2500).name(), "fast-basrpt(V=2500)");
}

// ----------------------------------------------------------- exact BASRPT

TEST(ExactBasrpt, ObjectiveHelperMatchesDefinition) {
  VoqCandidate a;
  a.shortest_remaining = 4.0;
  a.backlog = 10.0;
  VoqCandidate b;
  b.shortest_remaining = 8.0;
  b.backlog = 2.0;
  // V*avg(sizes) − sum(backlogs) = 5*6 − 12 = 18.
  EXPECT_DOUBLE_EQ(ExactBasrptScheduler::objective(5.0, {a, b}), 18.0);
  EXPECT_DOUBLE_EQ(ExactBasrptScheduler::objective(5.0, {}), 0.0);
}

TEST(ExactBasrpt, BeatsOrTiesFastBasrptOnObjective) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    VoqMatrix voqs = random_state(4, 10, rng);
    const double v = 10.0 * (trial % 5 + 1);
    ExactBasrptScheduler exact(v);
    FastBasrptScheduler fast(v);
    const auto candidates = build_candidates(voqs, 1.0);

    const auto pick = [&](const Decision& d) {
      std::vector<VoqCandidate> chosen;
      for (FlowId id : d.selected) {
        const Flow& f = voqs.flow(id);
        for (const auto& c : candidates) {
          if (c.ingress == f.src && c.egress == f.dst) {
            chosen.push_back(c);
          }
        }
      }
      return chosen;
    };

    const double exact_obj = ExactBasrptScheduler::objective(
        v, pick(decide_aos(exact, 4, candidates)));
    const double fast_obj = ExactBasrptScheduler::objective(
        v, pick(decide_aos(fast, 4, candidates)));
    EXPECT_LE(exact_obj, fast_obj + 1e-9) << "trial " << trial;
  }
}

TEST(ExactBasrpt, SelectionIsValidMaximalMatching) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    VoqMatrix voqs = random_state(4, 8, rng);
    ExactBasrptScheduler exact(25.0);
    const auto decision = decide_aos(exact, 4, build_candidates(voqs, 1.0));
    EXPECT_TRUE(decision_is_matching(decision, voqs));
    EXPECT_GE(decision.selected.size(), 1u);
  }
}

TEST(ExactBasrpt, RefusesLargeFabric) {
  ExactBasrptScheduler exact(10.0, 4);
  VoqMatrix voqs(8);
  voqs.add_flow(make_flow(1, 0, 1, 1));
  EXPECT_THROW(decide_aos(exact, 8, build_candidates(voqs, 1.0)),
               ConfigError);
}

// -------------------------------------------------------- threshold SRPT

TEST(ThresholdSrpt, PromotesLongQueues) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1));  // tiny flow, tiny queue
  // VOQ (1,1)? invalid — use (1,0): long queue with big flows.
  for (FlowId id = 10; id < 15; ++id) {
    voqs.add_flow(make_flow(id, 1, 0, 400));
  }
  ThresholdSrptScheduler sched(1000.0);  // 5*400 = 2000 > 1000: promoted
  const auto decision = decide_aos(sched, 2, build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 2u);
  EXPECT_EQ(decision.selected[0], 10);  // promoted VOQ first
}

TEST(ThresholdSrpt, BelowThresholdBehavesLikeSrpt) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    VoqMatrix voqs = random_state(5, 15, rng);
    SrptScheduler srpt;
    ThresholdSrptScheduler sched(1e9);  // nothing promoted
    const auto candidates = build_candidates(voqs, 1.0);
    const auto a = decide_aos(srpt, 5, candidates);
    const auto b = decide_aos(sched, 5, candidates);
    EXPECT_EQ(std::set<FlowId>(a.selected.begin(), a.selected.end()),
              std::set<FlowId>(b.selected.begin(), b.selected.end()));
  }
}

// --------------------------------------------------------------- MaxWeight

TEST(MaxWeight, MaximizesBacklogWeight) {
  Rng rng(6);
  for (int trial = 0; trial < 15; ++trial) {
    VoqMatrix voqs = random_state(4, 12, rng);
    MaxWeightScheduler sched;
    const auto candidates = build_candidates(voqs, 1.0);
    const auto decision = decide_aos(sched, 4, candidates);
    EXPECT_TRUE(decision_is_matching(decision, voqs));

    // Compare against Hungarian ground truth on the backlog matrix.
    std::vector<std::vector<double>> weights(4, std::vector<double>(4, 0.0));
    for (const auto& c : candidates) {
      weights[static_cast<std::size_t>(c.ingress)]
             [static_cast<std::size_t>(c.egress)] = c.backlog;
    }
    const auto best = matching::max_weight_perfect(weights);
    double decision_weight = 0.0;
    for (FlowId id : decision.selected) {
      const Flow& f = voqs.flow(id);
      decision_weight += static_cast<double>(
          voqs.backlog(f.src, f.dst).count);
    }
    EXPECT_NEAR(decision_weight, matching::matching_weight(best, weights),
                1e-9);
  }
}

TEST(MaxWeight, ServesShortestWithinChosenVoq) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 50));
  voqs.add_flow(make_flow(2, 0, 1, 3));
  MaxWeightScheduler sched;
  const auto decision = decide_aos(sched, 2, build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 1u);
  EXPECT_EQ(decision.selected[0], 2);
}

// ------------------------------------------------------------------- FIFO

TEST(Fifo, ServesOldestRegardlessOfSize) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1, 9.0));    // tiny but late
  voqs.add_flow(make_flow(2, 0, 1, 1000, 1.0));  // huge but early
  FifoScheduler sched;
  const auto decision = decide_aos(sched, 2, build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 1u);
  EXPECT_EQ(decision.selected[0], 2);
}

// -------------------------------------------------------------------- BvN

TEST(Bvn, ServesVoqsAtTheirGuaranteedRates) {
  // Uniform 0.8-load matrix on 4 ports; run many decisions over a static
  // backlog and check each VOQ is picked at frequency >= lambda.
  const PortId n = 4;
  const auto rates = switchsim::uniform_rates(n, 0.8);
  BvnScheduler sched(rates, Rng(7));

  VoqMatrix voqs(n);
  FlowId id = 0;
  for (PortId i = 0; i < n; ++i) {
    for (PortId j = 0; j < n; ++j) {
      if (i != j) {
        voqs.add_flow(make_flow(id++, i, j, 1'000'000));
      }
    }
  }
  const auto candidates = build_candidates(voqs, 1.0);
  std::map<std::pair<PortId, PortId>, int> served;
  const int rounds = 20'000;
  for (int r = 0; r < rounds; ++r) {
    const auto decision = decide_aos(sched, n, candidates);
    EXPECT_TRUE(decision_is_matching(decision, voqs));
    for (FlowId f : decision.selected) {
      const Flow& flow = voqs.flow(f);
      served[{flow.src, flow.dst}]++;
    }
  }
  const double lambda = 0.8 / 3.0;
  for (const auto& [voq, count] : served) {
    EXPECT_GE(static_cast<double>(count) / rounds, lambda - 0.02)
        << voq.first << "→" << voq.second;
  }
}

// ---------------------------------------------------------------- factory

TEST(Factory, PolicyRoundTrip) {
  for (const Policy p :
       {Policy::kSrpt, Policy::kFastBasrpt, Policy::kThresholdSrpt,
        Policy::kExactBasrpt, Policy::kMaxWeight, Policy::kFifo}) {
    EXPECT_EQ(parse_policy(to_string(p)), p);
  }
  EXPECT_THROW(parse_policy("nonsense"), ConfigError);
}

TEST(Factory, BuildsEverySpec) {
  EXPECT_EQ(make_scheduler(SchedulerSpec::srpt())->name(), "srpt");
  EXPECT_EQ(make_scheduler(SchedulerSpec::fast_basrpt(2500))->name(),
            "fast-basrpt(V=2500)");
  EXPECT_EQ(make_scheduler(SchedulerSpec::threshold_srpt(500))->name(),
            "threshold-srpt(T=500)");
  EXPECT_EQ(make_scheduler(SchedulerSpec::exact_basrpt(100))->name(),
            "exact-basrpt(V=100)");
  EXPECT_EQ(make_scheduler(SchedulerSpec::maxweight())->name(), "maxweight");
  EXPECT_EQ(make_scheduler(SchedulerSpec::fifo())->name(), "fifo");
}

// ------------------------------------------------ tracked decision path

/// Forwards every call, as instrumentation decorators do: the view's
/// change tracking must reach the inner scheduler untouched.
class Forwarding final : public Scheduler {
 public:
  explicit Forwarding(Scheduler& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  bool needs_arrival_lane() const override {
    return inner_.needs_arrival_lane();
  }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override {
    inner_.decide_into(n_ports, candidates, out);
  }

 private:
  Scheduler& inner_;
};

/// The GreedyMatcher-based schedulers, whose matching is kept across
/// decisions.
const char* const kGreedySpecs[] = {"srpt", "fast-basrpt:v=2500",
                                    "threshold-srpt:threshold=300", "fifo"};

/// What a fresh instance of `spec` decides from scratch on the cache's
/// usable candidates.
std::vector<FlowId> fresh_decision(const char* spec, PortId n_ports,
                                   const VoqMatrix& voqs,
                                   const fabric::CandidateCache& cache) {
  std::vector<VoqCandidate> usable;
  for (const VoqCandidate& c : build_candidates(voqs, 1.0)) {
    if (cache.port_usable(c.ingress) && cache.port_usable(c.egress)) {
      usable.push_back(c);
    }
  }
  SchedulerPtr fresh = make_scheduler(SchedulerSpec::parse(spec));
  return decide_aos(*fresh, n_ports, usable).selected;
}

/// The matcher's exact work over a churn run.
struct ChurnWork {
  std::uint64_t candidates = 0;  // summed over decisions
  std::uint64_t decisions = 0;
  std::uint64_t rebuilds = 0;    // decisions that had to rebuild
  std::uint64_t rekeyed = 0;     // changed and vanished positions repaired
  std::uint64_t sort_calls = 0;
  std::uint64_t sort_work = 0;
  std::uint64_t repair_work = 0;
};

/// Churn the simulators' way — drain what the last decision served,
/// admit a few flows, now and then flip a port mask or admit a burst —
/// and decide on refreshed cache views, including refreshes with no
/// mutation in between, repeated decisions on one view, and now and
/// then a refresh the scheduler skips. Each decision must equal a fresh
/// scheduler's from-scratch decision. Returns the matcher's work.
ChurnWork run_tracked_churn(const char* spec, Scheduler& scheduler,
                            std::uint64_t seed) {
  const PortId ports = 24;
  Rng rng(seed);
  VoqMatrix voqs(ports);
  fabric::CandidateCache cache(voqs, 1.0, scheduler.needs_arrival_lane());
  FlowId next_id = 0;
  Decision decision;
  ChurnWork work;
  std::size_t decided_size = 0;  // size of the last view decided on
  obs::Registry registry;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  {
    const obs::ScopedRegistryBind bind(&registry);
    const auto admit = [&] {
      const auto src = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      auto dst = static_cast<PortId>(rng.uniform_int(0, ports - 2));
      if (dst >= src) {
        ++dst;
      }
      voqs.add_flow(make_flow(next_id, src, dst, rng.uniform_int(1, 400),
                              static_cast<double>(next_id) * 1e-3));
      ++next_id;
    };
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(step);
      for (const FlowId id : decision.selected) {
        voqs.drain(id, Bytes{rng.uniform_int(1, 120)});
      }
      const int arrivals = step % 50 == 25 ? 300 : rng.uniform_int(0, 2);
      for (int a = 0; a < arrivals; ++a) {
        admit();
      }
      if (rng.bernoulli(0.05)) {
        const auto port = static_cast<PortId>(rng.uniform_int(0, ports - 1));
        cache.set_port_usable(port, !cache.port_usable(port));
      }
      const bool skipped = step == 0 || step % 17 == 8;
      if (step % 17 == 8) {
        // A refresh this scheduler never decides on: the next view
        // skips a sequence number, so the matching must be rebuilt.
        cache.refresh();
        admit();
      }
      const int repeats = step % 9 == 0 ? 2 : 1;
      const CandidateView& view = cache.refresh();
      for (int r = 0; r < repeats; ++r) {
        const obs::PhaseStats sort = registry.phase(obs::Phase::kMatchSort);
        const std::uint64_t repair =
            registry.phase(obs::Phase::kMatchRepair).work;
        scheduler.decide_into(ports, view, decision);
        work.sort_calls +=
            registry.phase(obs::Phase::kMatchSort).calls - sort.calls;
        work.sort_work +=
            registry.phase(obs::Phase::kMatchSort).work - sort.work;
        work.repair_work +=
            registry.phase(obs::Phase::kMatchRepair).work - repair;
        ++work.decisions;
        work.candidates += view.size();
        if (skipped && r == 0) {
          ++work.rebuilds;
        } else if (r == 0) {
          work.rekeyed += view.changes().changed_count +
                          (decided_size > view.size()
                               ? decided_size - view.size()
                               : 0);
        }
        EXPECT_EQ(decision.selected,
                  fresh_decision(spec, ports, voqs, cache));
      }
      decided_size = view.size();
    }
  }
  obs::set_enabled(was_enabled);
  return work;
}

/// The matching is kept: only the decisions after a skipped refresh
/// sort and scan, and the repair re-keys every changed or vanished
/// position once and adds cascade steps. All of the matcher's work
/// together stays below the candidates decided over, which the accept
/// scan alone used to walk.
void expect_repaired(const ChurnWork& work) {
  EXPECT_EQ(work.sort_calls, work.rebuilds);
  EXPECT_GE(work.repair_work, work.rekeyed);
  EXPECT_LT(2 * work.sort_work + work.repair_work, work.candidates);
}

TEST(TrackedDecisions, ChurnedCacheViewsDecideLikeAFreshScheduler) {
  for (const char* spec : kGreedySpecs) {
    SCOPED_TRACE(spec);
    SchedulerPtr scheduler = make_scheduler(SchedulerSpec::parse(spec));
    expect_repaired(run_tracked_churn(spec, *scheduler, 17));
  }
}

TEST(TrackedDecisions, ForwardingDecoratorKeepsTheTrackedPath) {
  for (const char* spec : kGreedySpecs) {
    SCOPED_TRACE(spec);
    SchedulerPtr inner = make_scheduler(SchedulerSpec::parse(spec));
    Forwarding decorator(*inner);
    expect_repaired(run_tracked_churn(spec, decorator, 23));
  }
}

TEST(TrackedDecisions, NoisyDecoratorKeepsTheTrackedPath) {
  // The size-noise decorator keeps its perturbed lane copy and rewrites
  // each changed position from that position's own lanes, so it hands
  // the cache's change list on and the matching is kept.
  for (const char* spec : {"srpt:err=4", "fast-basrpt:v=2500:err=4"}) {
    SCOPED_TRACE(spec);
    SchedulerPtr scheduler = make_scheduler(SchedulerSpec::parse(spec));
    expect_repaired(run_tracked_churn(spec, *scheduler, 29));
  }
}

TEST(TrackedDecisions, AlternatingCachesRebuildTheOrder) {
  const PortId ports = 8;
  for (const char* spec : kGreedySpecs) {
    SCOPED_TRACE(spec);
    SchedulerPtr scheduler = make_scheduler(SchedulerSpec::parse(spec));
    Rng rng(31);
    VoqMatrix a = random_state(ports, 60, rng);
    VoqMatrix b = random_state(ports, 60, rng);
    fabric::CandidateCache cache_a(a, 1.0);
    fabric::CandidateCache cache_b(b, 1.0);
    FlowId next_id = 1000;
    Decision decision;
    for (int round = 0; round < 24; ++round) {
      SCOPED_TRACE(round);
      VoqMatrix& voqs = round % 2 == 0 ? a : b;
      fabric::CandidateCache& cache = round % 2 == 0 ? cache_a : cache_b;
      if (round >= 2) {
        // The caches refresh in lockstep, so each sees the sequence
        // number the other's last view carried.
        voqs.add_flow(make_flow(next_id++, round % ports,
                                (round + 1) % ports, 1 + round));
      }
      scheduler->decide_into(ports, cache.refresh(), decision);
      EXPECT_EQ(decision.selected, fresh_decision(spec, ports, voqs, cache));
    }
  }
}

TEST(TrackedDecisions, CacheRecreatedInTheSameStorageStartsANewChain) {
  // One scheduler reused across caches that are destroyed and
  // re-created at one address, each over a different state, as the
  // end-to-end replay does. The new cache's first decided view carries
  // the sequence number the old chain ended on (or the one after it):
  // only the cache identity, not its address, keeps the old order out.
  const PortId ports = 8;
  for (const char* spec : kGreedySpecs) {
    SCOPED_TRACE(spec);
    SchedulerPtr scheduler = make_scheduler(SchedulerSpec::parse(spec));
    Rng rng(37);
    std::optional<fabric::CandidateCache> cache;
    const fabric::CandidateCache* address = nullptr;
    Decision decision;
    for (int rep = 0; rep < 6; ++rep) {
      SCOPED_TRACE(rep);
      VoqMatrix voqs = random_state(ports, 30 + 7 * rep, rng);
      cache.emplace(voqs, 1.0, scheduler->needs_arrival_lane());
      if (address == nullptr) {
        address = &*cache;
      }
      ASSERT_EQ(&*cache, address);
      if (rep % 3 == 2) {
        cache->refresh();  // undecided: the decision below is on seq 2
        voqs.add_flow(make_flow(10000 + rep, 1, 2, 5));
      }
      scheduler->decide_into(ports, cache->refresh(), decision);
      EXPECT_EQ(decision.selected, fresh_decision(spec, ports, voqs, *cache));
      cache.reset();
    }
  }
}

TEST(TrackedDecisions, PortCountChangeRebuildsTheOrder) {
  // Fast BASRPT's key weighs size by V / n_ports, so the same lanes
  // order differently under another port count: a chain continues only
  // at the port counts it was built with.
  Rng rng(41);
  VoqMatrix voqs = random_state(8, 80, rng);
  fabric::CandidateCache cache(voqs, 1.0, false);
  FastBasrptScheduler fast(2500.0);
  Decision decision;
  FlowId next_id = 5000;
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    const PortId n_ports = round % 2 == 0 ? 8 : 64;
    voqs.add_flow(make_flow(next_id++, round % 8, (round + 3) % 8, 40));
    const CandidateView& view = cache.refresh();
    fast.decide_into(n_ports, view, decision);
    FastBasrptScheduler fresh(2500.0);
    std::vector<VoqCandidate> all = build_candidates(voqs, 1.0, false);
    EXPECT_EQ(decision.selected, decide_aos(fresh, n_ports, all).selected);
  }
}

// ------------------------------------------------------- decision audit

/// SRPT that drops the last flow of its selection at exactly one
/// decision: still a matching, but not the greedy one.
class ErrsOnce final : public Scheduler {
 public:
  ErrsOnce(std::uint64_t at, bool stateful) : at_(at), stateful_(stateful) {}
  std::string name() const override { return "srpt"; }
  bool needs_arrival_lane() const override { return false; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override {
    inner_.decide_into(n_ports, candidates, out);
    if (++calls_ == at_) {
      out.selected.pop_back();
    }
  }
  std::vector<std::uint64_t> checkpoint_state() const override {
    return stateful_ ? std::vector<std::uint64_t>{calls_}
                     : std::vector<std::uint64_t>{};
  }

 private:
  SrptScheduler inner_;
  std::uint64_t at_;
  bool stateful_;
  std::uint64_t calls_ = 0;
};

/// Decides `count` times on a churned cache view through `audited`:
/// the served flows drain and a flow arrives before each decision.
void run_audited(AuditedScheduler& audited, int count) {
  const PortId ports = 8;
  Rng rng(43);
  VoqMatrix voqs = random_state(ports, 40, rng);
  fabric::CandidateCache cache(voqs, 1.0, false);
  Decision decision;
  FlowId next_id = 100000;
  for (int d = 0; d < count; ++d) {
    for (const FlowId id : decision.selected) {
      voqs.drain(id, Bytes{1});
    }
    voqs.add_flow(make_flow(next_id++, d % ports, (d + 1 + d / ports) % ports,
                            rng.uniform_int(1, 400)));
    audited.decide_into(ports, cache.refresh(), decision);
  }
}

TEST(DecisionAudit, CatchesTheOneWrongDecisionItSamples) {
  const std::uint64_t at = 2 * AuditedScheduler::kAuditEvery;
  AuditedScheduler audited(std::make_unique<ErrsOnce>(at, false),
                           std::make_unique<SrptScheduler>());
  try {
    run_audited(audited, static_cast<int>(at) + 10);
    FAIL() << "the wrong decision went through";
  } catch (const fault::InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("decision " + std::to_string(at) + " of 'srpt'"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("selected ["), std::string::npos) << what;
    EXPECT_NE(what.find("from-scratch decision selects ["), std::string::npos)
        << what;
  }
  EXPECT_EQ(audited.decisions(), at);
  EXPECT_EQ(audited.audits(), 2u);
}

TEST(DecisionAudit, SamplesEveryThousandthDecisionOnly) {
  // An error between samples passes; the samples around it agree.
  const std::uint64_t at = AuditedScheduler::kAuditEvery + 1;
  AuditedScheduler audited(std::make_unique<ErrsOnce>(at, false),
                           std::make_unique<SrptScheduler>());
  EXPECT_NO_THROW(run_audited(audited, 3000));
  EXPECT_EQ(audited.audits(), 3u);
}

TEST(DecisionAudit, LeavesStatefulSchedulersUnaudited) {
  const std::uint64_t at = AuditedScheduler::kAuditEvery;
  AuditedScheduler audited(std::make_unique<ErrsOnce>(at, true),
                           std::make_unique<SrptScheduler>());
  EXPECT_NO_THROW(run_audited(audited, 1500));
  EXPECT_EQ(audited.audits(), 0u);
}

// ------------------------------------------------------ decision checking

TEST(DecisionIsMatching, RejectsPortReuseAndUnknownFlows) {
  VoqMatrix voqs(3);
  voqs.add_flow(make_flow(1, 0, 1, 5));
  voqs.add_flow(make_flow(2, 0, 2, 5));
  voqs.add_flow(make_flow(3, 2, 1, 5));
  EXPECT_FALSE(decision_is_matching({{1, 2}}, voqs));  // ingress 0 reused
  EXPECT_FALSE(decision_is_matching({{1, 3}}, voqs));  // egress 1 reused
  EXPECT_FALSE(decision_is_matching({{99}}, voqs));    // unknown flow
  EXPECT_FALSE(decision_is_matching({{1, 1}}, voqs));  // duplicate
  EXPECT_TRUE(decision_is_matching({{2, 3}}, voqs));
}

}  // namespace
}  // namespace basrpt::sched
