// Unit tests for src/queueing: VOQ matrix bookkeeping, Lyapunov tools,
// backlog recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "queueing/backlog_recorder.hpp"
#include "queueing/lyapunov.hpp"
#include "queueing/voq.hpp"

namespace basrpt::queueing {
namespace {

Flow make_flow(FlowId id, PortId src, PortId dst, Bytes size,
               double arrival = 0.0,
               stats::FlowClass cls = stats::FlowClass::kBackground) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.remaining = size;
  f.arrival = SimTime{arrival};
  f.cls = cls;
  return f;
}

// -------------------------------------------------------------- VoqMatrix

TEST(VoqMatrix, AddAndLookup) {
  VoqMatrix voqs(4);
  voqs.add_flow(make_flow(1, 0, 2, 10_KB));
  EXPECT_TRUE(voqs.contains(1));
  EXPECT_EQ(voqs.flow(1).remaining, 10_KB);
  EXPECT_EQ(voqs.backlog(0, 2), 10_KB);
  EXPECT_EQ(voqs.flow_count(0, 2), 1u);
  EXPECT_EQ(voqs.active_flows(), 1u);
  EXPECT_EQ(voqs.non_empty_voqs(), 1u);
}

TEST(VoqMatrix, BacklogsAggregatePerPort) {
  VoqMatrix voqs(4);
  voqs.add_flow(make_flow(1, 0, 2, 10_KB));
  voqs.add_flow(make_flow(2, 0, 3, 5_KB));
  voqs.add_flow(make_flow(3, 1, 2, 7_KB));
  EXPECT_EQ(voqs.ingress_backlog(0), 15_KB);
  EXPECT_EQ(voqs.ingress_backlog(1), 7_KB);
  EXPECT_EQ(voqs.egress_backlog(2), 17_KB);
  EXPECT_EQ(voqs.egress_backlog(3), 5_KB);
  EXPECT_EQ(voqs.total_backlog(), 22_KB);
}

TEST(VoqMatrix, DrainPartialKeepsFlow) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 10_KB));
  EXPECT_FALSE(voqs.drain(1, 4_KB));
  EXPECT_EQ(voqs.flow(1).remaining, 6_KB);
  EXPECT_EQ(voqs.backlog(0, 1), 6_KB);
  EXPECT_EQ(voqs.total_backlog(), 6_KB);
}

TEST(VoqMatrix, DrainToZeroCompletesAndRemoves) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 10_KB));
  EXPECT_TRUE(voqs.drain(1, 10_KB));
  EXPECT_FALSE(voqs.contains(1));
  EXPECT_EQ(voqs.total_backlog(), Bytes{0});
  EXPECT_EQ(voqs.non_empty_voqs(), 0u);
}

TEST(VoqMatrix, OverdrainClampsToRemaining) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 10_KB));
  EXPECT_TRUE(voqs.drain(1, 1_MB));
  EXPECT_EQ(voqs.total_backlog(), Bytes{0});
}

TEST(VoqMatrix, RemoveDiscardsBacklog) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 10_KB));
  voqs.add_flow(make_flow(2, 0, 1, 5_KB));
  voqs.remove(1);
  EXPECT_FALSE(voqs.contains(1));
  EXPECT_EQ(voqs.backlog(0, 1), 5_KB);
  voqs.remove(99);  // absent id is a no-op
  EXPECT_EQ(voqs.active_flows(), 1u);
}

TEST(VoqMatrix, ShortestTracksDrains) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 10_KB));
  voqs.add_flow(make_flow(2, 0, 1, 8_KB));
  EXPECT_EQ(voqs.shortest_in_voq(0, 1), 2);
  // Drain flow 1 below flow 2: the ordering index must follow.
  voqs.drain(1, 5_KB);
  EXPECT_EQ(voqs.shortest_in_voq(0, 1), 1);
}

TEST(VoqMatrix, OldestIsByArrivalNotSize) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1_KB, 5.0));
  voqs.add_flow(make_flow(2, 0, 1, 100_KB, 1.0));
  EXPECT_EQ(voqs.oldest_in_voq(0, 1), 2);
  EXPECT_EQ(voqs.shortest_in_voq(0, 1), 1);
}

TEST(VoqMatrix, EmptyVoqQueriesReturnInvalid) {
  VoqMatrix voqs(2);
  EXPECT_EQ(voqs.shortest_in_voq(0, 1), kInvalidFlow);
  EXPECT_EQ(voqs.oldest_in_voq(0, 1), kInvalidFlow);
}

TEST(VoqMatrix, NonEmptyIterationMatchesState) {
  VoqMatrix voqs(3);
  voqs.add_flow(make_flow(1, 0, 1, 1_KB));
  voqs.add_flow(make_flow(2, 2, 0, 2_KB));
  voqs.add_flow(make_flow(3, 2, 0, 3_KB));
  int seen = 0;
  voqs.for_each_non_empty_voq([&](PortId i, PortId j) {
    ++seen;
    EXPECT_GT(voqs.flow_count(i, j), 0u);
  });
  EXPECT_EQ(seen, 2);
  voqs.drain(2, 2_KB);
  voqs.drain(3, 3_KB);
  seen = 0;
  voqs.for_each_non_empty_voq([&](PortId, PortId) { ++seen; });
  EXPECT_EQ(seen, 1);
}

TEST(VoqMatrix, VoqFlowIdsSortedByRemaining) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 30_KB));
  voqs.add_flow(make_flow(2, 0, 1, 10_KB));
  voqs.add_flow(make_flow(3, 0, 1, 20_KB));
  const auto ids = voqs.voq_flow_ids(0, 1);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 2);
  EXPECT_EQ(ids[1], 3);
  EXPECT_EQ(ids[2], 1);
}

TEST(VoqMatrix, DuplicateIdAsserts) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1_KB));
  EXPECT_THROW(voqs.add_flow(make_flow(1, 1, 0, 1_KB)), SimulationError);
}

TEST(VoqMatrix, TiedRemainingBrokenById) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(5, 0, 1, 1_KB));
  voqs.add_flow(make_flow(3, 0, 1, 1_KB));
  EXPECT_EQ(voqs.shortest_in_voq(0, 1), 3);
}

TEST(VoqMatrix, ForEachFlowVisitsAll) {
  VoqMatrix voqs(3);
  for (FlowId id = 0; id < 5; ++id) {
    voqs.add_flow(make_flow(id, static_cast<PortId>(id % 3),
                            static_cast<PortId>((id + 1) % 3), 1_KB));
  }
  std::size_t count = 0;
  Bytes total{};
  voqs.for_each_flow([&](const Flow& f) {
    ++count;
    total += f.remaining;
  });
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(total, voqs.total_backlog());
}

// Reference model for the slab/index layout: the plain map+set design
// it replaced. Every queue-state observable must agree exactly.
struct VoqOracle {
  explicit VoqOracle(PortId ports) : n_ports(ports) {}

  std::size_t index(PortId i, PortId j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_ports) +
           static_cast<std::size_t>(j);
  }

  void add(const Flow& f) {
    flows.emplace(f.id, f);
    by_remaining[index(f.src, f.dst)].insert({f.remaining.count, f.id});
    by_arrival[index(f.src, f.dst)].insert({f.arrival.seconds, f.id});
  }

  void erase(const Flow& f) {
    by_remaining[index(f.src, f.dst)].erase({f.remaining.count, f.id});
    by_arrival[index(f.src, f.dst)].erase({f.arrival.seconds, f.id});
    flows.erase(f.id);
  }

  // Mirrors VoqMatrix::drain: clamp at zero, remove on completion.
  bool drain(FlowId id, Bytes amount) {
    Flow& f = flows.at(id);
    const std::size_t idx = index(f.src, f.dst);
    by_remaining[idx].erase({f.remaining.count, id});
    f.remaining.count = std::max<std::int64_t>(0, f.remaining.count -
                                                      amount.count);
    if (f.remaining.count == 0) {
      by_arrival[idx].erase({f.arrival.seconds, id});
      flows.erase(id);
      return true;
    }
    by_remaining[idx].insert({f.remaining.count, id});
    return false;
  }

  PortId n_ports;
  std::map<FlowId, Flow> flows;
  std::map<std::size_t, std::set<std::pair<std::int64_t, FlowId>>>
      by_remaining;
  std::map<std::size_t, std::set<std::pair<double, FlowId>>> by_arrival;
};

TEST(VoqMatrix, RandomChurnMatchesMapSetOracle) {
  const PortId ports = 4;
  VoqMatrix voqs(ports);
  VoqOracle oracle(ports);
  Rng rng(2024);
  FlowId next_id = 1;
  std::vector<FlowId> live;
  int head_drains = 0;
  int other_drains = 0;

  for (int step = 0; step < 4000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 9);
    if (op < 5 || live.empty()) {
      // Admit a fresh flow; sizes small enough that drains complete.
      Flow f = make_flow(next_id++,
                         static_cast<PortId>(rng.uniform_int(0, ports - 1)),
                         static_cast<PortId>(rng.uniform_int(0, ports - 1)),
                         Bytes{rng.uniform_int(1, 5000)},
                         rng.uniform(0.0, 100.0));
      voqs.add_flow(f);
      oracle.add(f);
      live.push_back(f.id);
    } else if (op < 9) {
      // Drain a live flow, sometimes through the slot-addressed hot path,
      // sometimes to completion. Mostly the head of a random flow's VOQ,
      // which SRPT-like schedulers serve and drain_slot lowers in place;
      // otherwise the flow itself, which is re-inserted.
      std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      if (rng.bernoulli(0.75)) {
        const Flow& f = voqs.flow(live[pick]);
        pick = static_cast<std::size_t>(
            std::find(live.begin(), live.end(),
                      voqs.shortest_in_voq(f.src, f.dst)) -
            live.begin());
      }
      const FlowId id = live[pick];
      const Flow& f = voqs.flow(id);
      const bool head = voqs.shortest_in_voq(f.src, f.dst) == id;
      (head ? head_drains : other_drains) += 1;
      const Bytes amount{rng.bernoulli(0.3)
                             ? voqs.flow(id).remaining.count
                             : rng.uniform_int(1, 2000)};
      bool done;
      if (rng.bernoulli(0.5)) {
        done = voqs.drain_at(voqs.slot_of(id), amount);
      } else {
        done = voqs.drain(id, amount);
      }
      EXPECT_EQ(done, oracle.drain(id, amount));
      if (done) {
        live[pick] = live.back();
        live.pop_back();
      }
    } else {
      // Remove a random live flow outright.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const FlowId id = live[pick];
      oracle.erase(oracle.flows.at(id));
      voqs.remove(id);
      live[pick] = live.back();
      live.pop_back();
    }

    // Compare the full observable state every few mutations.
    if (step % 17 != 0) {
      continue;
    }
    ASSERT_EQ(voqs.active_flows(), oracle.flows.size());
    std::int64_t total = 0;
    for (const auto& [id, f] : oracle.flows) {
      ASSERT_TRUE(voqs.contains(id));
      ASSERT_EQ(voqs.flow(id).remaining, f.remaining);
      total += f.remaining.count;
    }
    ASSERT_EQ(voqs.total_backlog(), Bytes{total});
    for (PortId i = 0; i < ports; ++i) {
      for (PortId j = 0; j < ports; ++j) {
        const auto rem_it = oracle.by_remaining.find(oracle.index(i, j));
        const bool empty =
            rem_it == oracle.by_remaining.end() || rem_it->second.empty();
        ASSERT_EQ(voqs.flow_count(i, j), empty ? 0u : rem_it->second.size());
        if (empty) {
          ASSERT_EQ(voqs.shortest_in_voq(i, j), kInvalidFlow);
          ASSERT_EQ(voqs.oldest_in_voq(i, j), kInvalidFlow);
          continue;
        }
        // Heads and full per-VOQ order against the reference sets.
        ASSERT_EQ(voqs.shortest_in_voq(i, j), rem_it->second.begin()->second);
        const auto& arr = oracle.by_arrival.at(oracle.index(i, j));
        ASSERT_EQ(voqs.oldest_in_voq(i, j), arr.begin()->second);
        const auto& se = voqs.shortest_entry(i, j);
        ASSERT_EQ(se.key, rem_it->second.begin()->first);
        ASSERT_EQ(voqs.flow_at(se.slot).id, se.id);
        std::vector<FlowId> expected_order;
        std::int64_t backlog = 0;
        for (const auto& [rem, id] : rem_it->second) {
          expected_order.push_back(id);
          backlog += rem;
        }
        ASSERT_EQ(voqs.voq_flow_ids(i, j), expected_order);
        ASSERT_EQ(voqs.backlog(i, j), Bytes{backlog});
      }
    }
  }
  // Both drain paths ran, the in-place head path in most drain steps.
  EXPECT_GT(head_drains, 2 * other_drains);
  EXPECT_GT(other_drains, 100);
}

// ----------------------------------------------------------- ChunkedIndex

TEST(ChunkedIndex, LoweredFrontAloneInItsChunkKeepsTheOrder) {
  // 48 entries split into two chunks of 24; erasing the first chunk's
  // other 23 entries leaves the front alone in its chunk, where it is
  // also that chunk's back, the bound chunk searches compare against.
  ChunkedIndex<std::int64_t> index;
  for (FlowId id = 1; id <= 48; ++id) {
    index.insert(100 * id, id, static_cast<FlowSlot>(id));
  }
  for (FlowId id = 2; id <= 24; ++id) {
    index.erase(100 * id, id);
  }
  ASSERT_EQ(index.size(), 25u);
  index.lower_front_key(50);
  EXPECT_EQ(index.front().key, 50);
  EXPECT_EQ(index.front().id, 1);

  // Inserts on either side of the lowered key, and a tie broken by id,
  // land in (key, id) order; the lowered entry is found under its new key.
  index.insert(40, 60, 60);
  index.insert(70, 61, 61);
  index.insert(50, 62, 62);
  std::vector<std::pair<std::int64_t, FlowId>> order;
  index.for_each([&](const ChunkedIndex<std::int64_t>::Entry& e) {
    order.emplace_back(e.key, e.id);
  });
  ASSERT_EQ(order.size(), 28u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order[1], std::make_pair(std::int64_t{50}, FlowId{1}));
  EXPECT_EQ(order[2], std::make_pair(std::int64_t{50}, FlowId{62}));
  index.erase(40, 60);
  index.lower_front_key(10);
  index.erase(10, 1);
  EXPECT_EQ(index.front().id, 62);
  EXPECT_EQ(index.size(), 26u);
}

TEST(FlowStore, RefInvalidatedByEraseAndRecycle) {
  FlowStore store;
  const FlowSlot slot = store.insert(make_flow(7, 0, 1, 10_KB));
  const FlowRef ref = store.ref(slot);
  EXPECT_TRUE(store.valid(ref));
  store.erase(slot);
  EXPECT_FALSE(store.valid(ref));
  // Recycling the slot for a new tenant must not resurrect the old ref.
  const FlowSlot again = store.insert(make_flow(8, 2, 3, 20_KB));
  EXPECT_EQ(again, slot);
  EXPECT_FALSE(store.valid(ref));
  EXPECT_TRUE(store.valid(store.ref(again)));
}

#if defined(__SANITIZE_ADDRESS__)
#define BASRPT_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BASRPT_TEST_ASAN 1
#endif
#endif

#if defined(BASRPT_TEST_ASAN)
TEST(FlowStoreDeathTest, RecycledSlotReadTrapsUnderAsan) {
  // Freed arena slots are poisoned (past the free-list link in the
  // first bytes): a stale-slot read of a scoring field must trap
  // instead of silently reading the next tenant's storage.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        FlowStore store;
        const FlowSlot slot = store.insert(make_flow(1, 0, 1, 10_KB));
        store.erase(slot);
        volatile std::int64_t sink = store.at(slot).remaining.count;
        (void)sink;
      },
      "use-after-poison");
}
#endif

// --------------------------------------------------------------- Lyapunov

TEST(Lyapunov, QuadraticOfVector) {
  EXPECT_DOUBLE_EQ(lyapunov_value(std::vector<double>{3.0, 4.0}), 12.5);
  EXPECT_DOUBLE_EQ(lyapunov_value(std::vector<double>{}), 0.0);
}

TEST(Lyapunov, OfVoqMatrixInPacketUnits) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, Bytes{3000}));  // 2 packets @1500B
  voqs.add_flow(make_flow(2, 1, 0, Bytes{1500}));  // 1 packet
  EXPECT_DOUBLE_EQ(lyapunov_value(voqs, 1500.0), 0.5 * (4.0 + 1.0));
}

TEST(Lyapunov, ZeroWhenEmpty) {
  VoqMatrix voqs(4);
  EXPECT_DOUBLE_EQ(lyapunov_value(voqs, 1500.0), 0.0);
}

TEST(DriftTracker, MeanDriftOfLinearGrowth) {
  DriftTracker tracker;
  for (int t = 0; t <= 10; ++t) {
    tracker.observe(5.0 * t);
  }
  EXPECT_TRUE(tracker.has_samples());
  EXPECT_DOUBLE_EQ(tracker.mean_drift(), 5.0);
  EXPECT_DOUBLE_EQ(tracker.max_drift(), 5.0);
}

TEST(DriftTracker, NoSamplesBeforeTwoObservations) {
  DriftTracker tracker;
  tracker.observe(1.0);
  EXPECT_FALSE(tracker.has_samples());
}

// -------------------------------------------------------- BacklogRecorder

TEST(BacklogRecorder, TracksThreeSeries) {
  VoqMatrix voqs(4);
  BacklogRecorder rec(0, 2);
  rec.sample(SimTime{0.0}, voqs);
  voqs.add_flow(make_flow(1, 0, 2, 10_KB));
  voqs.add_flow(make_flow(2, 1, 3, 99_KB));
  rec.sample(SimTime{1.0}, voqs);
  EXPECT_EQ(rec.total().size(), 2u);
  EXPECT_DOUBLE_EQ(rec.total().last_value(), 109'000.0);
  EXPECT_DOUBLE_EQ(rec.watched_voq().last_value(), 10'000.0);
  EXPECT_DOUBLE_EQ(rec.max_ingress().last_value(), 99'000.0);
}

}  // namespace
}  // namespace basrpt::queueing
