// Property-based suites (parameterized gtest): invariants that must hold
// across schedulers, loads, port counts, and random states.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "matching/bipartite.hpp"
#include "matching/birkhoff.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "queueing/voq.hpp"
#include "sched/factory.hpp"
#include "switchsim/arrivals.hpp"
#include "switchsim/slotted_sim.hpp"
#include "topo/maxmin.hpp"

namespace basrpt {
namespace {

using queueing::Flow;
using queueing::FlowId;
using queueing::VoqMatrix;
using sched::PortId;

/// Decides over AoS candidates from sched::build_candidates, the
/// reference candidate builder.
sched::Decision decide_aos(sched::Scheduler& scheduler, PortId n_ports,
                           const std::vector<sched::VoqCandidate>& candidates) {
  sched::CandidateSoA soa;
  return scheduler.decide(n_ports,
                          sched::CandidateView::from_aos(candidates, soa));
}

VoqMatrix random_state(PortId n_ports, int n_flows, Rng& rng) {
  VoqMatrix voqs(n_ports);
  for (FlowId id = 0; id < n_flows; ++id) {
    Flow f;
    f.id = id;
    f.src = static_cast<PortId>(rng.uniform_int(0, n_ports - 1));
    f.dst = static_cast<PortId>(rng.uniform_int(0, n_ports - 2));
    if (f.dst >= f.src) {
      ++f.dst;
    }
    f.size = Bytes{rng.uniform_int(1, 500)};
    f.remaining = f.size;
    f.arrival = SimTime{rng.uniform01()};
    voqs.add_flow(f);
  }
  return voqs;
}

// ---------------------------------------- every scheduler, every state

class SchedulerProperty
    : public ::testing::TestWithParam<sched::Policy> {};

TEST_P(SchedulerProperty, DecisionsAreAlwaysMatchings) {
  const sched::Policy policy = GetParam();
  sched::SchedulerSpec spec;
  spec.policy = policy;
  spec.v = 100.0;
  spec.threshold_packets = 200.0;
  auto scheduler = sched::make_scheduler(spec);

  Rng rng(101);
  for (int trial = 0; trial < 25; ++trial) {
    const PortId n = static_cast<PortId>(2 + trial % 5);
    VoqMatrix voqs = random_state(n, 4 * n, rng);
    const auto decision =
        decide_aos(*scheduler, n, sched::build_candidates(voqs, 1.0));
    EXPECT_TRUE(sched::decision_is_matching(decision, voqs))
        << sched::to_string(policy) << " trial " << trial;
  }
}

TEST_P(SchedulerProperty, WorkConservingSchedulersSelectSomething) {
  const sched::Policy policy = GetParam();
  sched::SchedulerSpec spec;
  spec.policy = policy;
  auto scheduler = sched::make_scheduler(spec);
  Rng rng(102);
  for (int trial = 0; trial < 10; ++trial) {
    VoqMatrix voqs = random_state(4, 6, rng);
    const auto decision =
        decide_aos(*scheduler, 4, sched::build_candidates(voqs, 1.0));
    EXPECT_GE(decision.selected.size(), 1u) << sched::to_string(policy);
  }
}

TEST_P(SchedulerProperty, EmptyFabricYieldsEmptyDecision) {
  sched::SchedulerSpec spec;
  spec.policy = GetParam();
  auto scheduler = sched::make_scheduler(spec);
  const auto decision = scheduler->decide(4, sched::CandidateView{});
  EXPECT_TRUE(decision.selected.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SchedulerProperty,
    ::testing::Values(sched::Policy::kSrpt, sched::Policy::kFastBasrpt,
                      sched::Policy::kThresholdSrpt,
                      sched::Policy::kExactBasrpt, sched::Policy::kMaxWeight,
                      sched::Policy::kFifo),
    [](const ::testing::TestParamInfo<sched::Policy>& info) {
      std::string name = sched::to_string(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// -------------------------------------------- greedy matching invariants

class GreedyProperty : public ::testing::TestWithParam<int> {};

TEST_P(GreedyProperty, MaximalAndValidOnRandomInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const PortId n = static_cast<PortId>(3 + GetParam() % 6);
  std::vector<matching::ScoredCandidate> candidates;
  std::vector<matching::Edge> edges;
  const int k = 2 * n * n / 3;
  for (int e = 0; e < k; ++e) {
    matching::ScoredCandidate c;
    c.left = static_cast<PortId>(rng.uniform_int(0, n - 1));
    c.right = static_cast<PortId>(rng.uniform_int(0, n - 1));
    c.score = rng.uniform(0.0, 1.0);
    c.payload = e;
    candidates.push_back(c);
    edges.push_back({c.left, c.right});
  }
  const auto result = matching::greedy_maximal(candidates, n, n);
  EXPECT_TRUE(matching::is_valid_matching(result.matching, n));
  EXPECT_TRUE(matching::is_maximal_matching(result.matching, edges, n));
  // Greedy cardinality is at least half the optimum (classic bound).
  matching::BipartiteGraph g(n, n);
  std::set<std::pair<PortId, PortId>> dedup;
  for (const auto& e : edges) {
    if (dedup.insert({e.left, e.right}).second) {
      g.add_edge(e.left, e.right);
    }
  }
  const std::size_t optimum = matching::maximum_matching_size(g);
  EXPECT_GE(2 * result.matching.size(), optimum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyProperty, ::testing::Range(0, 12));

// ----------------------------------------------- BvN decomposition sweep

class BvnProperty : public ::testing::TestWithParam<int> {};

TEST_P(BvnProperty, CompletionAndDecompositionInvariants) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 6;
  matching::RateMatrix rates(n, std::vector<double>(n, 0.0));
  // Random admissible matrix: scale rows/cols under 1.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      rates[i][j] = rng.uniform(0.0, 0.9 / static_cast<double>(n));
    }
  }
  const auto completed = matching::complete_to_doubly_stochastic(rates);
  const auto terms = matching::birkhoff_decompose(completed);
  const auto rebuilt =
      matching::reconstruct(terms, static_cast<matching::PortId>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(rebuilt[i][j], completed[i][j], 1e-6);
      EXPECT_GE(completed[i][j] + 1e-12, rates[i][j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BvnProperty, ::testing::Range(0, 10));

// --------------------------------------------------- max-min allocation

class MaxMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperty, FeasibleAndParetoOnRandomDemands) {
  Rng rng(static_cast<std::uint64_t>(2000 + GetParam()));
  const topo::Fabric fabric(topo::small_fabric(2, 4, 2));
  std::vector<topo::FlowDemand> demands;
  const int flows = 2 + GetParam() % 12;
  for (int f = 0; f < flows; ++f) {
    const auto src =
        static_cast<topo::HostId>(rng.uniform_int(0, fabric.hosts() - 1));
    auto dst =
        static_cast<topo::HostId>(rng.uniform_int(0, fabric.hosts() - 2));
    if (dst >= src) {
      ++dst;
    }
    topo::FlowDemand d;
    d.path = fabric.route(src, dst, static_cast<std::uint64_t>(f));
    if (rng.bernoulli(0.3)) {
      d.cap = gbps(rng.uniform(0.5, 12.0));
    }
    demands.push_back(d);
  }
  const auto rates = topo::max_min_rates(demands, fabric.capacities());

  std::vector<double> load(static_cast<std::size_t>(fabric.links()), 0.0);
  for (std::size_t f = 0; f < demands.size(); ++f) {
    EXPECT_GT(rates[f].bits_per_sec, 0.0);
    if (demands[f].cap.bits_per_sec > 0.0) {
      EXPECT_LE(rates[f].bits_per_sec,
                demands[f].cap.bits_per_sec * (1.0 + 1e-9));
    }
    for (const auto& use : demands[f].path) {
      load[static_cast<std::size_t>(use.link)] +=
          use.fraction * rates[f].bits_per_sec;
    }
  }
  for (topo::LinkId l = 0; l < fabric.links(); ++l) {
    EXPECT_LE(load[static_cast<std::size_t>(l)],
              fabric.link_capacity(l).bits_per_sec * (1.0 + 1e-9));
  }
  // Pareto: every flow is rate-capped or crosses a saturated link.
  for (std::size_t f = 0; f < demands.size(); ++f) {
    bool limited =
        demands[f].cap.bits_per_sec > 0.0 &&
        rates[f].bits_per_sec >= demands[f].cap.bits_per_sec * (1 - 1e-6);
    for (const auto& use : demands[f].path) {
      const double cap = fabric.link_capacity(use.link).bits_per_sec;
      if (load[static_cast<std::size_t>(use.link)] >= cap * (1 - 1e-6)) {
        limited = true;
      }
    }
    EXPECT_TRUE(limited) << "flow " << f << " is not max-min limited";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty, ::testing::Range(0, 15));

// ----------------------------------------- slotted conservation per load

class ConservationProperty : public ::testing::TestWithParam<double> {};

TEST_P(ConservationProperty, DeliveredPlusLeftEqualsArrived) {
  const double load = GetParam();
  const PortId n = 5;
  std::vector<switchsim::SlottedArrival> all;
  auto stream = switchsim::bernoulli_arrivals(
      switchsim::uniform_rates(n, load), switchsim::SizeMix{}, 3000,
      Rng(static_cast<std::uint64_t>(load * 1000)));
  std::int64_t arrived = 0;
  while (auto a = stream()) {
    arrived += a->size;
    all.push_back(*a);
  }
  switchsim::SlottedConfig config;
  config.n_ports = n;
  config.horizon = 3100;
  for (const sched::Policy policy :
       {sched::Policy::kSrpt, sched::Policy::kFastBasrpt,
        sched::Policy::kMaxWeight, sched::Policy::kFifo}) {
    sched::SchedulerSpec spec;
    spec.policy = policy;
    auto scheduler = sched::make_scheduler(spec);
    const auto result = switchsim::run_slotted(
        config, *scheduler, switchsim::stream_from_vector(all));
    EXPECT_EQ(result.delivered_packets + result.left_packets, arrived)
        << sched::to_string(policy) << " at load " << load;
  }
}

INSTANTIATE_TEST_SUITE_P(Loads, ConservationProperty,
                         ::testing::Values(0.2, 0.5, 0.8, 0.95));

}  // namespace
}  // namespace basrpt
