// Unit tests for src/topo: fabric layout, routing, max-min allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "topo/maxmin.hpp"
#include "topo/topology.hpp"

namespace basrpt::topo {
namespace {

// ----------------------------------------------------------------- fabric

TEST(Fabric, PaperFabricDimensions) {
  const Fabric fabric(paper_fabric());
  EXPECT_EQ(fabric.hosts(), 144);
  EXPECT_EQ(fabric.config().racks, 12);
  EXPECT_EQ(fabric.config().cores, 3);
  EXPECT_DOUBLE_EQ(fabric.config().host_link.bits_per_sec, 1e10);
  EXPECT_DOUBLE_EQ(fabric.config().core_link.bits_per_sec, 4e10);
  // 2 links per host + 2 per (rack, core) pair.
  EXPECT_EQ(fabric.links(), 2 * 144 + 2 * 12 * 3);
}

TEST(Fabric, SmallFabricKeepsOneToOneOversubscription) {
  const FabricConfig config = small_fabric(4, 6, 3);
  const double rack_capacity =
      config.host_link.bits_per_sec * config.hosts_per_rack;
  const double uplink_capacity = config.core_link.bits_per_sec * config.cores;
  EXPECT_DOUBLE_EQ(rack_capacity, uplink_capacity);
}

TEST(Fabric, RackMembership) {
  const Fabric fabric(small_fabric(3, 4, 2));
  EXPECT_EQ(fabric.rack_of(0), 0);
  EXPECT_EQ(fabric.rack_of(3), 0);
  EXPECT_EQ(fabric.rack_of(4), 1);
  EXPECT_TRUE(fabric.same_rack(0, 3));
  EXPECT_FALSE(fabric.same_rack(3, 4));
}

TEST(Fabric, LinkIdsAreUniqueAndCapacitated) {
  const Fabric fabric(small_fabric(2, 3, 2));
  std::set<LinkId> seen;
  for (HostId h = 0; h < fabric.hosts(); ++h) {
    EXPECT_TRUE(seen.insert(fabric.host_up(h)).second);
    EXPECT_TRUE(seen.insert(fabric.host_down(h)).second);
  }
  for (std::int32_t r = 0; r < 2; ++r) {
    for (std::int32_t c = 0; c < 2; ++c) {
      EXPECT_TRUE(seen.insert(fabric.tor_up(r, c)).second);
      EXPECT_TRUE(seen.insert(fabric.tor_down(r, c)).second);
    }
  }
  EXPECT_EQ(static_cast<std::int32_t>(seen.size()), fabric.links());
  for (LinkId l : seen) {
    EXPECT_GT(fabric.link_capacity(l).bits_per_sec, 0.0);
  }
}

TEST(Fabric, IntraRackRouteUsesTwoEdgeLinks) {
  const Fabric fabric(small_fabric(2, 4, 2));
  const auto uses = fabric.route(0, 1, 7);
  ASSERT_EQ(uses.size(), 2u);
  EXPECT_EQ(uses[0].link, fabric.host_up(0));
  EXPECT_EQ(uses[1].link, fabric.host_down(1));
  EXPECT_DOUBLE_EQ(uses[0].fraction, 1.0);
}

TEST(Fabric, CrossRackSprayTouchesAllCoresFractionally) {
  FabricConfig config = small_fabric(2, 4, 3);
  config.routing = RoutingMode::kFluidSpray;
  const Fabric fabric(config);
  const auto uses = fabric.route(0, 5, 7);
  // host_up + 3x tor_up + 3x tor_down + host_down.
  ASSERT_EQ(uses.size(), 8u);
  double tor_fraction = 0.0;
  for (const auto& u : uses) {
    if (u.link != fabric.host_up(0) && u.link != fabric.host_down(5)) {
      EXPECT_NEAR(u.fraction, 1.0 / 3.0, 1e-12);
      tor_fraction += u.fraction;
    }
  }
  EXPECT_NEAR(tor_fraction, 2.0, 1e-12);  // one full unit up, one down
}

TEST(Fabric, EcmpPicksOneCoreDeterministically) {
  FabricConfig config = small_fabric(2, 4, 3);
  config.routing = RoutingMode::kEcmpHash;
  const Fabric fabric(config);
  const auto uses_a = fabric.route(0, 5, 1234);
  const auto uses_b = fabric.route(0, 5, 1234);
  ASSERT_EQ(uses_a.size(), 4u);  // host_up, tor_up, tor_down, host_down
  for (std::size_t k = 0; k < uses_a.size(); ++k) {
    EXPECT_EQ(uses_a[k].link, uses_b[k].link);
    EXPECT_DOUBLE_EQ(uses_a[k].fraction, 1.0);
  }
}

TEST(Fabric, EcmpSpreadsAcrossCoresOverFlows) {
  FabricConfig config = small_fabric(2, 4, 3);
  config.routing = RoutingMode::kEcmpHash;
  const Fabric fabric(config);
  std::set<LinkId> cores_used;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const auto uses = fabric.route(0, 5, key);
    cores_used.insert(uses[1].link);  // tor_up choice
  }
  EXPECT_EQ(cores_used.size(), 3u);
}

TEST(Fabric, RouteToSelfAsserts) {
  const Fabric fabric(small_fabric(2, 4, 2));
  EXPECT_THROW(fabric.route(3, 3, 0), SimulationError);
}

TEST(Fabric, RejectsDegenerateConfigs) {
  FabricConfig config;
  config.racks = 0;
  EXPECT_THROW(Fabric{config}, ConfigError);
}

// ----------------------------------------------------------------- maxmin

TEST(MaxMin, SingleFlowGetsBottleneckRate) {
  const Fabric fabric(small_fabric(2, 4, 3));
  std::vector<FlowDemand> demands = {{fabric.route(0, 1, 0), Rate{0}}};
  const auto rates = max_min_rates(demands, fabric.capacities());
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0].bits_per_sec, 1e10, 1.0);
}

TEST(MaxMin, TwoFlowsShareACommonLink) {
  const Fabric fabric(small_fabric(2, 4, 3));
  // Both flows leave host 0: the host_up link splits evenly.
  std::vector<FlowDemand> demands = {{fabric.route(0, 1, 0), Rate{0}},
                                     {fabric.route(0, 2, 1), Rate{0}}};
  const auto rates = max_min_rates(demands, fabric.capacities());
  EXPECT_NEAR(rates[0].bits_per_sec, 5e9, 1e3);
  EXPECT_NEAR(rates[1].bits_per_sec, 5e9, 1e3);
}

TEST(MaxMin, CapLimitsAFlow) {
  const Fabric fabric(small_fabric(2, 4, 3));
  std::vector<FlowDemand> demands = {{fabric.route(0, 1, 0), gbps(2.0)},
                                     {fabric.route(0, 2, 1), Rate{0}}};
  const auto rates = max_min_rates(demands, fabric.capacities());
  EXPECT_NEAR(rates[0].bits_per_sec, 2e9, 1e3);
  // The uncapped flow picks up the slack.
  EXPECT_NEAR(rates[1].bits_per_sec, 8e9, 1e3);
}

TEST(MaxMin, MatchingSelectionSaturatesEveryEdgeLink) {
  // A full rack of senders, all cross-rack: with fluid spray the core is
  // exactly at capacity and every flow still gets the full edge rate —
  // the non-blocking property the big-switch abstraction relies on.
  const Fabric fabric(small_fabric(2, 6, 3));
  std::vector<FlowDemand> demands;
  for (HostId h = 0; h < 6; ++h) {
    demands.push_back({fabric.route(h, h + 6, static_cast<std::uint64_t>(h)),
                       Rate{0}});
  }
  const auto rates = max_min_rates(demands, fabric.capacities());
  for (const Rate r : rates) {
    EXPECT_NEAR(r.bits_per_sec, 1e10, 1e4);
  }
}

TEST(MaxMin, EcmpCollisionCongestsACoreLink) {
  // Force all senders onto one core by routing with identical keys via a
  // synthetic single-core fabric: 6 senders share 3 tor uplinks of 20G
  // each... Instead, use a 1-core fabric where all cross-rack traffic
  // shares one 60G uplink: 6 flows → 10G each; with a 30G uplink they
  // halve. This exercises the in-network-bottleneck path of the
  // allocator.
  FabricConfig config = small_fabric(2, 6, 1);
  config.core_link = gbps(30.0);
  config.routing = RoutingMode::kEcmpHash;
  const Fabric fabric(config);
  std::vector<FlowDemand> demands;
  for (HostId h = 0; h < 6; ++h) {
    demands.push_back({fabric.route(h, h + 6, static_cast<std::uint64_t>(h)),
                       Rate{0}});
  }
  const auto rates = max_min_rates(demands, fabric.capacities());
  for (const Rate r : rates) {
    EXPECT_NEAR(r.bits_per_sec, 5e9, 1e4);
  }
}

TEST(MaxMin, BindingCoreLinkSaturatesExactly) {
  // Five senders share each 15 Gbps rack up-link at a third each, so the
  // up-links bind at 15e9 / (5 x 1/3) = 9 Gbps, below the host rate.
  // Subtracting weight x delta leaves those links a few ulp of residual,
  // more than any absolute tolerance at 1.5e10 bit/s: the solver must
  // still count them saturated and freeze their flows.
  FabricConfig config = small_fabric(2, 6, 3);
  config.core_link = gbps(15.0);
  const Fabric fabric(config);
  std::vector<FlowDemand> demands;
  for (HostId h = 0; h < 5; ++h) {
    demands.push_back({fabric.route(h, h + 6, static_cast<std::uint64_t>(h)),
                       Rate{0}});
  }
  const auto rates = max_min_rates(demands, fabric.capacities());
  ASSERT_EQ(rates.size(), 5u);
  for (const Rate r : rates) {
    EXPECT_EQ(r, rates[0]);
    EXPECT_NEAR(r.bits_per_sec, 9e9, 1.0);
  }
}

TEST(MaxMin, NoLinkOversubscribed) {
  const Fabric fabric(small_fabric(3, 4, 2));
  std::vector<FlowDemand> demands;
  std::uint64_t key = 0;
  for (HostId src = 0; src < fabric.hosts(); ++src) {
    for (HostId dst = 0; dst < fabric.hosts(); dst += 3) {
      if (src != dst) {
        demands.push_back({fabric.route(src, dst, key++), Rate{0}});
      }
    }
  }
  const auto rates = max_min_rates(demands, fabric.capacities());
  std::vector<double> load(static_cast<std::size_t>(fabric.links()), 0.0);
  for (std::size_t f = 0; f < demands.size(); ++f) {
    for (const LinkUse& use : demands[f].path) {
      load[static_cast<std::size_t>(use.link)] +=
          use.fraction * rates[f].bits_per_sec;
    }
  }
  for (LinkId l = 0; l < fabric.links(); ++l) {
    EXPECT_LE(load[static_cast<std::size_t>(l)],
              fabric.link_capacity(l).bits_per_sec * (1.0 + 1e-9));
  }
}

TEST(MaxMin, ParetoOptimalityEveryFlowHitsABottleneck) {
  const Fabric fabric(small_fabric(2, 4, 2));
  std::vector<FlowDemand> demands = {{fabric.route(0, 1, 0), Rate{0}},
                                     {fabric.route(0, 5, 1), Rate{0}},
                                     {fabric.route(2, 1, 2), Rate{0}}};
  const auto rates = max_min_rates(demands, fabric.capacities());
  std::vector<double> load(static_cast<std::size_t>(fabric.links()), 0.0);
  for (std::size_t f = 0; f < demands.size(); ++f) {
    for (const LinkUse& use : demands[f].path) {
      load[static_cast<std::size_t>(use.link)] +=
          use.fraction * rates[f].bits_per_sec;
    }
  }
  // Max-min: every flow must traverse at least one saturated link.
  for (std::size_t f = 0; f < demands.size(); ++f) {
    bool bottlenecked = false;
    for (const LinkUse& use : demands[f].path) {
      const double cap =
          fabric.link_capacity(use.link).bits_per_sec;
      if (load[static_cast<std::size_t>(use.link)] >= cap * (1.0 - 1e-6)) {
        bottlenecked = true;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " could be raised";
  }
}

TEST(MaxMin, EmptyDemandsYieldEmptyRates) {
  const Fabric fabric(small_fabric(2, 4, 2));
  EXPECT_TRUE(max_min_rates({}, fabric.capacities()).empty());
}

// ------------------------------------------------------------ edge-bound

/// solve_into over the routes of `pairs` (ECMP keys 0, 1, ...).
std::vector<Rate> solved_rates(const Fabric& fabric,
                               const std::vector<HostPair>& pairs) {
  std::vector<FlowDemand> demands;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    demands.push_back({fabric.route(pairs[k].src, pairs[k].dst, k), Rate{0}});
  }
  std::vector<Rate> rates;
  MaxMinSolver solver;
  solver.solve_into(demands.data(), demands.size(), fabric.capacities(),
                    rates);
  return rates;
}

bool bit_identical(const std::vector<Rate>& a, const std::vector<Rate>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Rate)) == 0);
}

TEST(EdgeBound, RandomMatchingsGetTheSolversRatesBitForBit) {
  // The 1:1 fabrics every bench runs on: the quick fabric's ToR weight
  // 6 x (1/3) sums to 1.9999999999999998 and the paper fabric's 12 x
  // (1/3) to exactly 4, and both leave the host links binding. So every
  // matching is edge-bound, and its rates are solve_into's to the bit.
  for (const FabricConfig& config :
       {small_fabric(4, 6, 3), paper_fabric(), small_fabric(2, 4, 2)}) {
    const Fabric fabric(config);
    EdgeBoundCheck check(fabric);
    const std::int32_t hosts = fabric.hosts();
    Rng rng(static_cast<std::uint64_t>(hosts));
    std::vector<HostId> dsts(static_cast<std::size_t>(hosts));
    std::vector<Rate> rates;
    for (int trial = 0; trial < 1200; ++trial) {
      // A random partial permutation without fixed points. The first
      // trial is the full rack shift: every rack sends and receives on
      // all of its host links, all of it cross-rack.
      std::vector<HostPair> pairs;
      if (trial == 0) {
        for (HostId h = 0; h < hosts; ++h) {
          pairs.push_back({h, (h + config.hosts_per_rack) % hosts});
        }
      } else {
        std::iota(dsts.begin(), dsts.end(), 0);
        std::shuffle(dsts.begin(), dsts.end(), rng);
        const double density = rng.uniform(0.05, 1.0);
        for (HostId h = 0; h < hosts; ++h) {
          if (dsts[static_cast<std::size_t>(h)] != h &&
              rng.bernoulli(density)) {
            pairs.push_back({h, dsts[static_cast<std::size_t>(h)]});
          }
        }
      }
      ASSERT_TRUE(check.rates_into(pairs, rates))
          << "hosts=" << hosts << " trial=" << trial;
      ASSERT_TRUE(bit_identical(rates, solved_rates(fabric, pairs)))
          << "hosts=" << hosts << " trial=" << trial;
    }
  }
}

TEST(EdgeBound, EcmpFallsBack) {
  FabricConfig config = small_fabric(2, 4, 2);
  config.routing = RoutingMode::kEcmpHash;
  const Fabric fabric(config);
  EdgeBoundCheck check(fabric);
  std::vector<Rate> rates;
  EXPECT_FALSE(check.rates_into(std::vector<HostPair>{{0, 5}}, rates));
  EXPECT_FALSE(check.rates_into(std::vector<HostPair>{{0, 1}}, rates));
}

TEST(EdgeBound, TwoFlowsOnOneHostLinkFallBack) {
  const Fabric fabric(small_fabric(2, 4, 2));
  EdgeBoundCheck check(fabric);
  std::vector<Rate> rates;
  // Shared up-link, shared down-link: fair sharing's serving sets.
  EXPECT_FALSE(check.rates_into(std::vector<HostPair>{{0, 1}, {0, 5}}, rates));
  EXPECT_FALSE(check.rates_into(std::vector<HostPair>{{0, 5}, {2, 5}}, rates));
  EXPECT_TRUE(rates.empty());  // untouched on a fallback
  // The check holds no state over from a failed call.
  EXPECT_TRUE(check.rates_into(std::vector<HostPair>{{0, 5}, {2, 1}}, rates));
  EXPECT_EQ(rates, std::vector<Rate>(2, gbps(10.0)));
}

TEST(EdgeBound, BindingCoreLinkFallsBack) {
  // The rack up-links carry a little less than a full rack of host
  // links: hosts_per_rack x host_link / cores is 20 Gbps here.
  FabricConfig config = small_fabric(2, 6, 3);
  config.core_link = gbps(19.9);
  const Fabric fabric(config);
  EdgeBoundCheck check(fabric);
  std::vector<Rate> rates;
  std::vector<HostPair> pairs;
  for (HostId h = 0; h < 5; ++h) {
    pairs.push_back({h, h + 6});
  }
  // Five senders still fit the core: edge-bound, as solve_into agrees.
  ASSERT_TRUE(check.rates_into(pairs, rates));
  EXPECT_TRUE(bit_identical(rates, solved_rates(fabric, pairs)));
  // The sixth makes the core link bind below the host rate.
  pairs.push_back({5, 11});
  EXPECT_FALSE(check.rates_into(pairs, rates));
  for (const Rate r : solved_rates(fabric, pairs)) {
    EXPECT_LT(r, config.host_link);
  }
  // Intra-rack flows never touch the core.
  const std::vector<HostPair> local = {{0, 1}, {1, 2}, {2, 3},
                                       {3, 4}, {4, 5}, {5, 0}};
  ASSERT_TRUE(check.rates_into(local, rates));
  EXPECT_TRUE(bit_identical(rates, solved_rates(fabric, local)));
}

}  // namespace
}  // namespace basrpt::topo
