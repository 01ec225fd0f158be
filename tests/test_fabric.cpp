// Tests for src/fabric: CandidateCache differential equivalence against
// build_candidates (the from-scratch oracle), FlowLifecycle accounting
// and preemption-diff semantics, and end-to-end tracer regressions that
// pin the refactored simulators to the event streams the pre-fabric
// code emitted on the same scripted runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "fabric/candidate_cache.hpp"
#include "fabric/flow_lifecycle.hpp"
#include "flowsim/flow_sim.hpp"
#include "matching/greedy.hpp"
#include "obs/trace.hpp"
#include "pktsim/packet_sim.hpp"
#include "queueing/voq.hpp"
#include "sched/scheduler.hpp"
#include "sched/srpt.hpp"
#include "switchsim/slotted_sim.hpp"
#include "topo/topology.hpp"
#include "workload/traffic.hpp"

namespace basrpt::fabric {
namespace {

// ------------------------------------------------------ CandidateCache

void expect_candidates_equal(const sched::CandidateView& got,
                             const std::vector<sched::VoqCandidate>& want,
                             bool with_arrival) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.has_arrival_lane(), with_arrival);
  for (std::size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(got.ingress()[k], want[k].ingress);
    EXPECT_EQ(got.egress()[k], want[k].egress);
    EXPECT_EQ(got.backlog()[k], want[k].backlog);
    EXPECT_EQ(got.shortest_flow()[k], want[k].shortest_flow);
    EXPECT_EQ(got.shortest_remaining()[k], want[k].shortest_remaining);
    if (with_arrival) {
      EXPECT_EQ(got.oldest_flow()[k], want[k].oldest_flow);
      EXPECT_EQ(got.oldest_arrival()[k], want[k].oldest_arrival);
    }
  }
}

/// build_candidates filtered by the cache's port mask: the cache's
/// packed view must equal it lane for lane.
std::vector<sched::VoqCandidate> masked_oracle(
    const queueing::VoqMatrix& voqs, const CandidateCache& cache) {
  std::vector<sched::VoqCandidate> all = sched::build_candidates(
      voqs, cache.unit_bytes(), cache.with_arrival());
  std::vector<sched::VoqCandidate> usable;
  for (const sched::VoqCandidate& c : all) {
    if (cache.port_usable(c.ingress) && cache.port_usable(c.egress)) {
      usable.push_back(c);
    }
  }
  return usable;
}

/// Every position whose lanes differ from the previous view's (or that
/// the previous view did not have) must be listed in changes(), each
/// position at most once and inside the view.
void expect_changes_cover_diff(const sched::CandidateView& got,
                               const sched::CandidateSoA& prev,
                               std::uint64_t cache_source,
                               std::uint64_t refreshes) {
  const matching::LaneChanges& ch = got.changes();
  EXPECT_NE(ch.source, 0u);
  EXPECT_EQ(ch.source, cache_source);
  EXPECT_EQ(ch.seq, refreshes);
  std::vector<char> listed(got.size(), 0);
  for (std::size_t k = 0; k < ch.changed_count; ++k) {
    ASSERT_LT(ch.changed[k], got.size());
    EXPECT_EQ(listed[ch.changed[k]], 0) << "listed twice: " << ch.changed[k];
    listed[ch.changed[k]] = 1;
  }
  for (std::size_t k = 0; k < got.size(); ++k) {
    const bool same =
        k < prev.ingress.size() && got.ingress()[k] == prev.ingress[k] &&
        got.egress()[k] == prev.egress[k] &&
        got.backlog()[k] == prev.backlog[k] &&
        got.shortest_flow()[k] == prev.shortest_flow[k] &&
        got.shortest_remaining()[k] == prev.shortest_remaining[k] &&
        (!got.has_arrival_lane() ||
         (got.oldest_flow()[k] == prev.oldest_flow[k] &&
          got.oldest_arrival()[k] == prev.oldest_arrival[k]));
    if (!same) {
      EXPECT_EQ(listed[k], 1) << "position " << k << " changed unlisted";
    }
  }
}

/// Randomized churn (add / partial drain / drain-to-completion / remove,
/// plus port-mask flips) against one VoqMatrix; after every batch of
/// mutations the cache's incremental SoA view must equal the
/// from-scratch AoS build, lane for lane and in the same order, and its
/// change list must cover every position that differs from the
/// previous view.
void run_churn(queueing::PortId ports, double unit_bytes, bool with_arrival,
               std::uint64_t seed, bool flip_masks = true) {
  Rng rng(seed);
  queueing::VoqMatrix voqs(ports);
  CandidateCache cache(voqs, unit_bytes, with_arrival);
  const std::uint64_t source = cache.refresh().changes().source;
  sched::CandidateSoA prev;
  prev.assign_from_view(cache.refresh());
  std::vector<queueing::FlowId> live;
  queueing::FlowId next_id = 0;
  std::size_t masked = 0;
  bool was_unmasked = true;

  for (int step = 0; step < 1500; ++step) {
    const double u = rng.uniform01();
    if (u < 0.03 && flip_masks) {
      const auto port =
          static_cast<queueing::PortId>(rng.uniform_int(0, ports - 1));
      const bool usable = !cache.port_usable(port);
      cache.set_port_usable(port, usable);
      masked = usable ? masked - 1 : masked + 1;
    } else if (live.empty() || u < 0.5) {
      queueing::Flow f;
      f.id = next_id++;
      f.src = static_cast<queueing::PortId>(rng.uniform_int(0, ports - 1));
      f.dst = static_cast<queueing::PortId>(rng.uniform_int(0, ports - 2));
      if (f.dst >= f.src) {
        ++f.dst;  // src != dst, uniform over the rest
      }
      f.size = Bytes{rng.uniform_int(1, 400)};
      f.remaining = f.size;
      f.arrival = SimTime{static_cast<double>(step) * 1e-3};
      voqs.add_flow(f);
      live.push_back(f.id);
    } else if (u < 0.85) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const queueing::FlowId id = live[pick];
      const Bytes amount{rng.uniform_int(1, 200)};
      if (voqs.drain(id, amount)) {
        live[pick] = live.back();
        live.pop_back();
      }
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      voqs.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }

    // Refresh at a varying cadence so dirt accumulates across several
    // mutations (the steady-state pattern) as well as one at a time;
    // every 11th step refreshes twice, and the second lists nothing.
    if (step % 7 == 0 || step % 11 == 0 || step + 1 == 1500) {
      const std::uint64_t recomputed = cache.voqs_recomputed();
      const sched::CandidateView& view = cache.refresh();
      if (masked == 0 && was_unmasked) {
        // Unmasked, lane positions are matrix positions: the refresh
        // writes exactly the dirty VOQs that are still non-empty.
        EXPECT_EQ(view.changes().changed_count,
                  cache.voqs_recomputed() - recomputed);
      }
      was_unmasked = masked == 0;
      expect_candidates_equal(view, masked_oracle(voqs, cache), with_arrival);
      expect_changes_cover_diff(view, prev, source, cache.refreshes());
      prev.assign_from_view(view);
      if (step % 11 == 0) {
        EXPECT_EQ(cache.refresh().changes().changed_count, 0u);
      }
    }
  }
}

TEST(CandidateCache, MatchesFromScratchBuildUnderRandomChurn) {
  for (const queueing::PortId ports : {2, 4, 16, 33}) {
    SCOPED_TRACE(ports);
    run_churn(ports, /*unit_bytes=*/1.0, /*with_arrival=*/true,
              /*seed=*/1000 + static_cast<std::uint64_t>(ports));
  }
}

TEST(CandidateCache, UnmaskedRefreshWritesOnlyTheDirtyVoqs) {
  for (const queueing::PortId ports : {2, 16, 33}) {
    SCOPED_TRACE(ports);
    run_churn(ports, /*unit_bytes=*/1.0, /*with_arrival=*/true,
              /*seed=*/4200 + static_cast<std::uint64_t>(ports),
              /*flip_masks=*/false);
  }
}

TEST(CandidateCache, MatchesOracleWithoutArrivalLaneAndFractionalUnit) {
  for (const queueing::PortId ports : {4, 16}) {
    SCOPED_TRACE(ports);
    run_churn(ports, /*unit_bytes=*/1500.0, /*with_arrival=*/false,
              /*seed=*/7700 + static_cast<std::uint64_t>(ports));
  }
}

TEST(CandidateCache, AbsentArrivalLaneIsAConfigErrorNotZeros) {
  queueing::VoqMatrix voqs(4);
  queueing::Flow f;
  f.id = 0;
  f.src = 0;
  f.dst = 1;
  f.size = Bytes{10};
  f.remaining = f.size;
  f.arrival = SimTime{3.5};
  voqs.add_flow(f);

  CandidateCache cache(voqs, 1.0, /*with_arrival=*/false);
  const auto& view = cache.refresh();
  ASSERT_EQ(view.size(), 1u);
  EXPECT_FALSE(view.has_arrival_lane());
  EXPECT_EQ(view.shortest_flow()[0], 0);
  EXPECT_THROW(view.oldest_flow(), ConfigError);
  EXPECT_THROW(view.oldest_arrival(), ConfigError);
}

TEST(CandidateCache, RecomputesOnlyDirtyVoqs) {
  queueing::VoqMatrix voqs(8);
  CandidateCache cache(voqs, 1.0);
  for (queueing::FlowId id = 0; id < 6; ++id) {
    queueing::Flow f;
    f.id = id;
    f.src = static_cast<queueing::PortId>(id);
    f.dst = static_cast<queueing::PortId>(id + 1);
    f.size = Bytes{100};
    f.remaining = f.size;
    voqs.add_flow(f);
  }
  ASSERT_EQ(cache.refresh().size(), 6u);
  EXPECT_EQ(cache.voqs_recomputed(), 6);

  // A clean refresh recomputes nothing.
  cache.refresh();
  EXPECT_EQ(cache.voqs_recomputed(), 6);
  EXPECT_EQ(cache.refreshes(), 2);

  // One drained VOQ dirties exactly one entry.
  voqs.drain(3, Bytes{10});
  const auto& view = cache.refresh();
  EXPECT_EQ(cache.voqs_recomputed(), 7);
  ASSERT_EQ(view.size(), 6u);
  for (std::size_t k = 0; k < view.size(); ++k) {
    if (view.shortest_flow()[k] == 3) {
      EXPECT_EQ(view.backlog()[k], 90.0);
    }
  }
}

// ------------------------------------------------------- FlowLifecycle

TEST(FlowLifecycle, AllocatesIdsAndCountsArrivals) {
  queueing::VoqMatrix voqs(4);
  stats::FctAggregator fct;
  FlowLifecycle lifecycle(&voqs, fct, /*tracer=*/nullptr);
  lifecycle.begin_run();

  EXPECT_EQ(lifecycle.admit({0, 1, Bytes{100}, SimTime{0.0},
                             stats::FlowClass::kBackground}),
            0);
  EXPECT_EQ(lifecycle.admit({2, 3, Bytes{50}, SimTime{1.0},
                             stats::FlowClass::kQuery}),
            1);
  EXPECT_EQ(lifecycle.flows_arrived(), 2);
  EXPECT_EQ(lifecycle.bytes_arrived(), Bytes{150});
  EXPECT_EQ(voqs.active_flows(), 2u);
  EXPECT_TRUE(voqs.contains(0));
  EXPECT_TRUE(voqs.contains(1));

  lifecycle.record_completion(stats::FlowClass::kQuery, 1, 2, 3, Bytes{50},
                              SimTime{0.5}, /*trace_time=*/1.5);
  EXPECT_EQ(lifecycle.flows_completed(), 1);
  EXPECT_EQ(fct.completed_total(), 1);
}

TEST(FlowLifecycle, PreemptionDiffKeepsOrderAndSkipsCompleted) {
  queueing::VoqMatrix voqs(8);
  stats::FctAggregator fct;
  obs::FlowTracer tracer;
  FlowLifecycle lifecycle(&voqs, fct, &tracer);
  lifecycle.begin_run();
  for (queueing::FlowId id = 0; id < 5; ++id) {
    lifecycle.admit({static_cast<PortId>(id), static_cast<PortId>(id + 1),
                     Bytes{10}, SimTime{0.0},
                     stats::FlowClass::kBackground});
  }

  // First decision: first-service events in selection order.
  lifecycle.apply_decision({4, 0, 2}, /*now=*/1.0);
  ASSERT_EQ(tracer.size(), 5 + 3u);
  EXPECT_EQ(tracer.records()[5].event, obs::FlowEvent::kFirstService);
  EXPECT_EQ(tracer.records()[5].flow, 4);
  EXPECT_EQ(tracer.records()[6].flow, 0);
  EXPECT_EQ(tracer.records()[7].flow, 2);

  // Flow 0 completes, flows 4 and 2 fall out of the selection: only the
  // still-queued ones are preempted, in previous-decision order (4 then
  // 2), and the retained flow 1... (none retained here).
  voqs.drain(0, Bytes{10});
  lifecycle.apply_decision({1}, /*now=*/2.0);
  const auto& records = tracer.records();
  ASSERT_EQ(records.size(), 8 + 3u);
  EXPECT_EQ(records[8].event, obs::FlowEvent::kPreemption);
  EXPECT_EQ(records[8].flow, 4);
  EXPECT_EQ(records[8].remaining, 10.0);
  EXPECT_EQ(records[9].event, obs::FlowEvent::kPreemption);
  EXPECT_EQ(records[9].flow, 2);
  EXPECT_EQ(records[10].event, obs::FlowEvent::kFirstService);
  EXPECT_EQ(records[10].flow, 1);

  // Re-selecting a previously served flow emits nothing new for it.
  lifecycle.apply_decision({4, 1}, /*now=*/3.0);
  EXPECT_EQ(tracer.size(), 11u);
}

// ------------------------------------------- tracer regressions (seed)

struct ExpectedEvent {
  obs::FlowEvent event;
  std::int64_t flow;
  std::int32_t src;
  std::int32_t dst;
  double time_sec;
  double size;
  double remaining;
};

void expect_trace(const obs::FlowTracer& tracer,
                  const std::vector<ExpectedEvent>& expected) {
  const auto& records = tracer.records();
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(records[k].event, expected[k].event);
    EXPECT_EQ(records[k].flow, expected[k].flow);
    EXPECT_EQ(records[k].src, expected[k].src);
    EXPECT_EQ(records[k].dst, expected[k].dst);
    EXPECT_DOUBLE_EQ(records[k].time_sec, expected[k].time_sec);
    EXPECT_DOUBLE_EQ(records[k].size, expected[k].size);
    EXPECT_DOUBLE_EQ(records[k].remaining, expected[k].remaining);
  }
}

/// Event stream captured from the pre-fabric slotted simulator on this
/// scripted run (4 ports, SRPT, 4 arrivals). The preemption-diff
/// rewrite (hash-set membership instead of nested std::find) must
/// reproduce it exactly, including event order within a slot.
TEST(TracerRegression, SlottedSrptMatchesPreFabricEventStream) {
  obs::FlowTracer tracer;
  switchsim::SlottedConfig config;
  config.n_ports = 4;
  config.horizon = 16;
  config.tracer = &tracer;
  std::vector<switchsim::SlottedArrival> arrivals = {
      {0, 0, 1, 5, stats::FlowClass::kBackground},
      {1, 0, 1, 2, stats::FlowClass::kQuery},
      {2, 2, 1, 1, stats::FlowClass::kQuery},
      {3, 1, 0, 3, stats::FlowClass::kBackground},
  };
  sched::SrptScheduler srpt;
  const auto result = switchsim::run_slotted(
      config, srpt, switchsim::stream_from_vector(arrivals));
  EXPECT_EQ(result.delivered_packets, 11);
  EXPECT_EQ(result.fct.completed_total(), 4);
  expect_trace(tracer, {
      {obs::FlowEvent::kArrival, 0, 0, 1, 0, 5, 5},
      {obs::FlowEvent::kFirstService, 0, 0, 1, 0, 5, 5},
      {obs::FlowEvent::kArrival, 1, 0, 1, 1, 2, 2},
      {obs::FlowEvent::kPreemption, 0, 0, 1, 1, 5, 4},
      {obs::FlowEvent::kFirstService, 1, 0, 1, 1, 2, 2},
      {obs::FlowEvent::kArrival, 2, 2, 1, 2, 1, 1},
      {obs::FlowEvent::kCompletion, 1, 0, 1, 2, 2, 0},
      {obs::FlowEvent::kArrival, 3, 1, 0, 3, 3, 3},
      {obs::FlowEvent::kFirstService, 2, 2, 1, 3, 1, 1},
      {obs::FlowEvent::kFirstService, 3, 1, 0, 3, 3, 3},
      {obs::FlowEvent::kCompletion, 2, 2, 1, 3, 1, 0},
      {obs::FlowEvent::kCompletion, 3, 1, 0, 5, 3, 0},
      {obs::FlowEvent::kCompletion, 0, 0, 1, 7, 5, 0},
  });
}

/// Same capture for the flow-level simulator. The double preemption at
/// t = 0.0003 (flows 2 then 0, in serving order) is the case the old
/// O(S²) diff loops got right by iterating the previous selection in
/// order — the regression this test pins.
TEST(TracerRegression, FlowSimSrptMatchesPreFabricEventStream) {
  obs::FlowTracer tracer;
  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric();
  config.horizon = seconds(1.0);
  config.tracer = &tracer;
  std::vector<workload::FlowArrival> arrivals = {
      {seconds(0.0), 0, 1, Bytes{1'500'000}, stats::FlowClass::kBackground},
      {seconds(0.0001), 0, 1, Bytes{150'000}, stats::FlowClass::kQuery},
      {seconds(0.0002), 2, 3, Bytes{300'000}, stats::FlowClass::kQuery},
      {seconds(0.0003), 2, 1, Bytes{3'000}, stats::FlowClass::kQuery},
  };
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic(std::move(arrivals));
  const auto result = flowsim::run_flow_sim(config, srpt, traffic);
  EXPECT_EQ(result.flows_completed, 4);
  expect_trace(tracer, {
      {obs::FlowEvent::kArrival, 0, 0, 1, 0.0, 1500000, 1500000},
      {obs::FlowEvent::kFirstService, 0, 0, 1, 0.0, 1500000, 1500000},
      {obs::FlowEvent::kArrival, 1, 0, 1, 0.0001, 150000, 150000},
      {obs::FlowEvent::kPreemption, 0, 0, 1, 0.0001, 1500000, 1375000},
      {obs::FlowEvent::kFirstService, 1, 0, 1, 0.0001, 150000, 150000},
      {obs::FlowEvent::kArrival, 2, 2, 3, 0.0002, 300000, 300000},
      {obs::FlowEvent::kFirstService, 2, 2, 3, 0.0002, 300000, 300000},
      {obs::FlowEvent::kCompletion, 1, 0, 1, 0.00022, 150000, 0},
      {obs::FlowEvent::kArrival, 3, 2, 1, 0.0003, 3000, 3000},
      {obs::FlowEvent::kPreemption, 2, 2, 3, 0.0003, 300000, 175000},
      {obs::FlowEvent::kPreemption, 0, 0, 1, 0.0003, 1500000, 1275000},
      {obs::FlowEvent::kFirstService, 3, 2, 1, 0.0003, 3000, 3000},
      {obs::FlowEvent::kCompletion, 3, 2, 1, 0.0003024, 3000, 0},
      {obs::FlowEvent::kCompletion, 2, 2, 3, 0.0004424, 300000, 0},
      {obs::FlowEvent::kCompletion, 0, 0, 1, 0.0013224, 1500000, 0},
  });
}

/// pktsim gained tracer wiring with the fabric refactor: every flow
/// emits arrival -> first-service -> completion, and the per-packet
/// model never preempts (a deprioritized flow just waits).
TEST(TracerRegression, PacketSimEmitsLifecycleWithoutPreemptions) {
  obs::FlowTracer tracer;
  pktsim::PacketSimConfig config;
  config.hosts = 2;
  config.horizon = seconds(0.01);
  config.tracer = &tracer;
  std::vector<workload::FlowArrival> arrivals = {
      {seconds(0.0), 0, 1, Bytes{30'000}, stats::FlowClass::kBackground},
      {seconds(0.000001), 0, 1, Bytes{3'000}, stats::FlowClass::kQuery},
  };
  workload::VectorTraffic traffic(std::move(arrivals));
  const auto result = pktsim::run_packet_sim(config, traffic);
  EXPECT_EQ(result.flows_completed, 2);

  int arrivals_seen = 0, first_service = 0, completions = 0;
  for (const auto& r : tracer.records()) {
    switch (r.event) {
      case obs::FlowEvent::kArrival: ++arrivals_seen; break;
      case obs::FlowEvent::kFirstService: ++first_service; break;
      case obs::FlowEvent::kCompletion: ++completions; break;
      case obs::FlowEvent::kPreemption: FAIL() << "pktsim preempted"; break;
    }
  }
  EXPECT_EQ(arrivals_seen, 2);
  EXPECT_EQ(first_service, 2);
  EXPECT_EQ(completions, 2);
  // The short flow (id 1, SRPT) finishes before the long one.
  const auto& records = tracer.records();
  std::int64_t first_completed = -1;
  for (const auto& r : records) {
    if (r.event == obs::FlowEvent::kCompletion) {
      first_completed = r.flow;
      break;
    }
  }
  EXPECT_EQ(first_completed, 1);
}

}  // namespace
}  // namespace basrpt::fabric
