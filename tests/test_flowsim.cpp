// Unit tests for src/flowsim: event mechanics, exact FCTs on hand-built
// scenarios, preemption, conservation, sampling, and the observability
// contract (allocation-free off path, call-site decision metrics).
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "flowsim/flow_sim.hpp"
#include "flowsim/online.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/profiler.hpp"
#include "sched/fast_basrpt.hpp"
#include "sched/srpt.hpp"
#include "workload/generators.hpp"
#include "workload/traffic.hpp"

namespace basrpt::flowsim {
namespace {

workload::FlowArrival make_arrival(double t, PortId src, PortId dst,
                                   Bytes size,
                                   stats::FlowClass cls =
                                       stats::FlowClass::kBackground) {
  workload::FlowArrival a;
  a.time = SimTime{t};
  a.src = src;
  a.dst = dst;
  a.size = size;
  a.cls = cls;
  return a;
}

FlowSimConfig tiny_config(double horizon_s = 1.0) {
  FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(horizon_s);
  config.sample_every = milliseconds(1.0);
  config.validate_decisions = true;
  return config;
}

TEST(FlowSim, SingleFlowFinishesAtLineRate) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 1, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  // 125 MB at 10 Gbps = 0.1 s.
  ASSERT_EQ(result.flows_completed, 1);
  const auto b = result.fct.summary(stats::FlowClass::kBackground);
  EXPECT_NEAR(b.mean_seconds, 0.1, 1e-6);
  EXPECT_EQ(result.delivered, 125_MB);
  EXPECT_EQ(result.flows_left, 0);
}

TEST(FlowSim, CrossRackFlowAlsoGetsLineRate) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 5, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  ASSERT_EQ(result.flows_completed, 1);
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kBackground).mean_seconds,
              0.1, 1e-6);
}

TEST(FlowSim, SrptSerializesSharedIngressShortestFirst) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  // Both from host 0: 25 MB and 125 MB. SRPT: small first (20 ms),
  // large waits then takes 100 ms more.
  workload::VectorTraffic traffic({
      make_arrival(0.0, 0, 1, 25_MB, stats::FlowClass::kQuery),
      make_arrival(0.0, 0, 2, 125_MB, stats::FlowClass::kBackground),
  });
  const auto result = run_flow_sim(config, srpt, traffic);
  ASSERT_EQ(result.flows_completed, 2);
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kQuery).mean_seconds,
              0.02, 1e-5);
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kBackground).mean_seconds,
              0.12, 1e-5);
}

TEST(FlowSim, ArrivingShortFlowPreemptsLongOne) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  // Long flow starts at t=0; at t=0.01 a short flow on the same ingress
  // arrives and must preempt immediately (decision update on arrival).
  workload::VectorTraffic traffic({
      make_arrival(0.0, 0, 1, 125_MB, stats::FlowClass::kBackground),
      make_arrival(0.01, 0, 2, 12500_KB, stats::FlowClass::kQuery),
  });
  const auto result = run_flow_sim(config, srpt, traffic);
  ASSERT_EQ(result.flows_completed, 2);
  // Short: 12.5 MB = 10 ms of line rate, served 0.01→0.02.
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kQuery).mean_seconds,
              0.01, 1e-5);
  // Long: 125 MB needs 100 ms of service, paused for 10 ms → 110 ms.
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kBackground).mean_seconds,
              0.11, 1e-5);
}

TEST(FlowSim, DisjointFlowsRunConcurrently) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({
      make_arrival(0.0, 0, 1, 125_MB),
      make_arrival(0.0, 2, 3, 125_MB),
  });
  const auto result = run_flow_sim(config, srpt, traffic);
  ASSERT_EQ(result.flows_completed, 2);
  const auto b = result.fct.summary(stats::FlowClass::kBackground);
  EXPECT_NEAR(b.max_seconds, 0.1, 1e-6);  // no serialization
}

TEST(FlowSim, ByteConservation) {
  auto config = tiny_config(0.2);
  sched::FastBasrptScheduler basrpt(2500.0);
  Rng rng(1);
  auto traffic = workload::paper_mix(0.8, 0.2, 2, 4, gbps(10.0),
                                     seconds(0.2), rng);
  const auto result = run_flow_sim(config, basrpt, *traffic);
  EXPECT_GT(result.flows_arrived, 50);
  // Every offered byte is either delivered or still queued, and a
  // completed flow's bytes are exactly its size.
  EXPECT_EQ(result.delivered + result.bytes_left, result.bytes_arrived);
  EXPECT_GE(result.delivered, result.fct.bytes_completed());
  EXPECT_EQ(result.flows_arrived,
            result.flows_completed + result.flows_left);
}

TEST(FlowSim, ThroughputMatchesDeliveredBytes) {
  auto config = tiny_config(0.5);
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 1, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  // 1 Gbit over 0.5 s horizon = 2 Gbps average.
  EXPECT_NEAR(result.throughput().bits_per_sec, 2e9, 1e6);
}

TEST(FlowSim, UnfinishedFlowLeftAtHorizon) {
  auto config = tiny_config(0.05);
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 1, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  EXPECT_EQ(result.flows_completed, 0);
  EXPECT_EQ(result.flows_left, 1);
  // Half the flow drained in half its service time.
  EXPECT_NEAR(static_cast<double>(result.bytes_left.count), 62.5e6, 1e4);
  EXPECT_NEAR(static_cast<double>(result.delivered.count), 62.5e6, 1e4);
}

TEST(FlowSim, BacklogTraceSampledOverHorizon) {
  auto config = tiny_config(0.1);
  config.watched_src = 0;
  config.watched_dst = 1;
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 1, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  // ~100 samples at 1 ms over 0.1 s.
  EXPECT_GE(result.backlog.watched_voq().size(), 90u);
  // The watched VOQ drains linearly: first sample is the biggest.
  EXPECT_NEAR(result.backlog.watched_voq().points().front().value, 125e6,
              2e6);
  EXPECT_LT(result.backlog.watched_voq().last_value(), 15e6);
}

TEST(FlowSim, SchedulerInvokedOnEveryArrivalAndCompletion) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({
      make_arrival(0.0, 0, 1, 1_MB),
      make_arrival(0.1, 2, 3, 1_MB),
  });
  const auto result = run_flow_sim(config, srpt, traffic);
  // 2 arrivals + 2 completions.
  EXPECT_EQ(result.scheduler_invocations, 4u);
}

TEST(FlowSim, ZeroHorizonRejected) {
  FlowSimConfig config = tiny_config();
  config.horizon = seconds(0.0);
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({});
  EXPECT_THROW(run_flow_sim(config, srpt, traffic), ConfigError);
}

TEST(FlowSim, EcmpModeRunsAndConserves) {
  auto config = tiny_config(0.2);
  config.fabric.routing = topo::RoutingMode::kEcmpHash;
  sched::SrptScheduler srpt;
  Rng rng(2);
  auto traffic = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0),
                                     seconds(0.2), rng);
  const auto result = run_flow_sim(config, srpt, *traffic);
  EXPECT_EQ(result.flows_arrived,
            result.flows_completed + result.flows_left);
  EXPECT_GT(result.flows_completed, 0);
}

TEST(FlowSimObs, OffPathAllocatesNothingPerArrival) {
  // The quick-scale fabric at load 0.95, driven one arrival at a time
  // the way basrptd and the end-to-end benchmark drive it. With
  // observability off, steady-state offer + advance_to must not touch
  // the heap (a metric-name lookup per advance_to once cost one
  // allocation per arrival).
  ASSERT_FALSE(obs::enabled());
  for (const bool basrpt : {false, true}) {
    FlowSimConfig config;
    config.fabric = topo::small_fabric(4, 6, 3);
    config.horizon = seconds(1.0);
    const std::int32_t hosts = config.fabric.hosts();
    sched::SrptScheduler srpt;
    sched::FastBasrptScheduler fast(2500.0 * hosts / 144.0);
    sched::Scheduler& scheduler =
        basrpt ? static_cast<sched::Scheduler&>(fast) : srpt;
    Rng rng(5);
    auto traffic =
        workload::paper_mix(0.95, 0.10, config.fabric.racks,
                            config.fabric.hosts_per_rack,
                            config.fabric.host_link, config.horizon, rng);
    OnlineFlowSim sim(config, scheduler);
    std::int64_t arrivals = 0;
    std::uint64_t allocs = 0;
    while (const auto a = traffic->next()) {
      if (a->time.seconds >= 0.75) {
        break;
      }
      const bool measured = a->time.seconds >= 0.6;
      if (measured) {
        perf::set_alloc_counting(true);
      }
      const std::uint64_t before = perf::alloc_total();
      sim.offer(*a);
      sim.advance_to(a->time);
      if (measured) {
        allocs += perf::alloc_total() - before;
        perf::set_alloc_counting(false);
        ++arrivals;
      }
    }
    ASSERT_GT(arrivals, 10000);
    EXPECT_LT(static_cast<double>(allocs) / static_cast<double>(arrivals),
              0.01)
        << scheduler.name() << ": " << allocs << " allocations over "
        << arrivals << " arrivals";
  }
}

TEST(FlowSimObs, PreemptionCountMatchesTracedPreemptions) {
  auto config = tiny_config(0.3);
  obs::FlowTracer tracer;
  config.tracer = &tracer;
  sched::SrptScheduler srpt;
  Rng rng(3);
  auto traffic = workload::paper_mix(0.9, 0.2, 2, 4, gbps(10.0),
                                     seconds(0.3), rng);
  obs::Registry registry;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  FlowSimResult result(0, 1);
  {
    const obs::ScopedRegistryBind bind(&registry);
    result = run_flow_sim(config, srpt, *traffic);
  }
  obs::set_enabled(was_enabled);

  std::int64_t traced = 0;
  for (const obs::FlowTraceRecord& r : tracer.records()) {
    traced += r.event == obs::FlowEvent::kPreemption ? 1 : 0;
  }
  ASSERT_GT(traced, 0);  // SRPT under a heavy-tailed mix does preempt
  EXPECT_EQ(registry.counters().at("sched.preemptions").value(), traced);
  // One decision per scheduler invocation with candidates, each timed
  // once by the decide phase and counted once at the call site.
  const std::int64_t decisions =
      registry.counters().at("sched.decisions").value();
  EXPECT_GT(decisions, 0);
  EXPECT_LE(decisions,
            static_cast<std::int64_t>(result.scheduler_invocations));
  EXPECT_EQ(registry.phase(obs::Phase::kDecide).calls,
            static_cast<std::uint64_t>(decisions));
  EXPECT_EQ(registry.histograms().at("sched.candidates").count(),
            static_cast<std::uint64_t>(decisions));
  EXPECT_EQ(registry.histograms().at("sched.matching_size").count(),
            static_cast<std::uint64_t>(decisions));
}

TEST(FlowSimObs, MatchSortWorkCountsOnlyChangedCandidates) {
  // Quick scale at load 0.95: between two decisions only the served
  // VOQs and one arrival or completion change, so the greedy matcher,
  // which repairs its matching from what changed, sorts and scans only
  // when it rebuilds (the first decision, and one after a refresh no
  // decision saw), and its repair work (entries re-keyed plus cascade
  // steps) is a small fraction of the candidates it decides over. The
  // counts are exact, so the bounds are too.
  for (const bool basrpt : {false, true}) {
    FlowSimConfig config;
    config.fabric = topo::small_fabric(4, 6, 3);
    config.horizon = seconds(0.2);
    const std::int32_t hosts = config.fabric.hosts();
    sched::SrptScheduler srpt;
    sched::FastBasrptScheduler fast(2500.0 * hosts / 144.0);
    sched::Scheduler& scheduler =
        basrpt ? static_cast<sched::Scheduler&>(fast) : srpt;
    Rng rng(9);
    auto traffic =
        workload::paper_mix(0.95, 0.10, config.fabric.racks,
                            config.fabric.hosts_per_rack,
                            config.fabric.host_link, config.horizon, rng);
    obs::Registry registry;
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    {
      const obs::ScopedRegistryBind bind(&registry);
      run_flow_sim(config, scheduler, *traffic);
    }
    obs::set_enabled(was_enabled);

    const std::uint64_t candidates =
        registry.histograms().at("sched.candidates").sum();
    const std::uint64_t decisions = registry.phase(obs::Phase::kDecide).calls;
    const obs::PhaseStats& sort = registry.phase(obs::Phase::kMatchSort);
    const obs::PhaseStats& scan = registry.phase(obs::Phase::kAcceptScan);
    const obs::PhaseStats& repair = registry.phase(obs::Phase::kMatchRepair);
    ASSERT_GT(candidates, 0u) << scheduler.name();
    // Every decision either rebuilds (sort, then a scan of every entry)
    // or repairs; rebuilds are rare.
    EXPECT_EQ(sort.calls + repair.calls, decisions) << scheduler.name();
    EXPECT_EQ(scan.calls, sort.calls) << scheduler.name();
    EXPECT_EQ(scan.work, sort.work) << scheduler.name();
    EXPECT_GT(sort.calls, 0u) << scheduler.name();
    EXPECT_LT(100 * sort.calls, decisions) << scheduler.name();
    EXPECT_LT(50 * sort.work, candidates) << scheduler.name();
    // A repair re-keys each changed or vanished position once (at most
    // the positions the cache rewrote) and takes fewer than four
    // cascade steps per decision on average; all of the matcher's work
    // is under half the candidates, which the accept scan alone used to
    // walk.
    EXPECT_GT(repair.work, 0u) << scheduler.name();
    EXPECT_LT(repair.work,
              registry.phase(obs::Phase::kCandidateRepack).work +
                  4 * decisions)
        << scheduler.name();
    EXPECT_LT(2 * (sort.work + scan.work + repair.work), candidates)
        << scheduler.name();
  }
}

TEST(FlowSimObs, EdgeBoundRatesMatchTheSolverAtEveryDecision) {
  // validate_decisions also routes and solves every edge-bound decision
  // and throws if the rates differ. On the quick fabric at load 0.95
  // every decision is edge-bound, so rate_solve hands no flow to the
  // solver; the random fault plan adds rate clamps, masked ports,
  // dropped decisions and re-arrivals. On two cores with rack
  // up-links of 20 Gbps instead of 30, a matching that sends five or six
  // flows out of one rack is core-bound and goes to the solver. So it
  // does on three cores of 15 Gbps, where five flows bind a rack up-link
  // at 15e9 / (5 x 1/3) bit/s and subtracting their share leaves the
  // link a few ulp of residual: the solver must still freeze them.
  enum class Variant { kPlain, kFaults, kThinCore, kBindingCore };
  for (const Variant variant : {Variant::kPlain, Variant::kFaults,
                                Variant::kThinCore, Variant::kBindingCore}) {
    for (const bool basrpt : {false, true}) {
      FlowSimConfig config;
      config.fabric = topo::small_fabric(4, 6, 3);
      if (variant == Variant::kThinCore) {
        config.fabric = topo::small_fabric(4, 6, 2);
        config.fabric.core_link = gbps(20.0);
      }
      if (variant == Variant::kBindingCore) {
        config.fabric.core_link = gbps(15.0);
      }
      config.horizon = seconds(0.2);
      config.validate_decisions = true;
      const std::int32_t hosts = config.fabric.hosts();
      fault::RandomFaultSpec spec;
      spec.ports = hosts;
      spec.horizon = config.horizon.seconds;
      const fault::FaultPlan plan = fault::FaultPlan::randomized(spec, 7);
      if (variant == Variant::kFaults) {
        config.fault_plan = &plan;
      }
      sched::SrptScheduler srpt;
      sched::FastBasrptScheduler fast(2500.0 * hosts / 144.0);
      sched::Scheduler& scheduler =
          basrpt ? static_cast<sched::Scheduler&>(fast) : srpt;
      Rng rng(11);
      auto traffic =
          workload::paper_mix(0.95, 0.10, config.fabric.racks,
                              config.fabric.hosts_per_rack,
                              config.fabric.host_link, config.horizon, rng);
      obs::Registry registry;
      const bool was_enabled = obs::enabled();
      obs::set_enabled(true);
      FlowSimResult result(0, 1);
      {
        const obs::ScopedRegistryBind bind(&registry);
        result = run_flow_sim(config, scheduler, *traffic);
      }
      obs::set_enabled(was_enabled);

      const std::string label =
          scheduler.name() + " variant " +
          std::to_string(static_cast<int>(variant));
      EXPECT_GT(result.flows_completed, 1000) << label;
      if (variant == Variant::kFaults) {
        EXPECT_GT(result.fault_stats.transitions, 0) << label;
      }
      const obs::PhaseStats& solve = registry.phase(obs::Phase::kRateSolve);
      const std::uint64_t selected =
          registry.histograms().at("sched.matching_size").sum();
      EXPECT_GT(solve.calls, 1000u) << label;
      if (variant == Variant::kThinCore ||
          variant == Variant::kBindingCore) {
        EXPECT_GT(solve.work, 0u) << label;
        EXPECT_LT(solve.work, selected) << label;
      } else {
        EXPECT_EQ(solve.work, 0u) << label;
      }
      EXPECT_GT(registry.phase(obs::Phase::kFluidAdvance).work, solve.calls)
          << label;
    }
  }
}

TEST(FlowSimObs, RateSolveWorkCountsTheSolvedFlows) {
  // ECMP is never edge-bound: every serving flow goes to the solver.
  auto config = tiny_config(0.2);
  config.fabric.routing = topo::RoutingMode::kEcmpHash;
  sched::SrptScheduler srpt;
  Rng rng(2);
  auto traffic = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0),
                                     seconds(0.2), rng);
  obs::Registry registry;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  {
    const obs::ScopedRegistryBind bind(&registry);
    run_flow_sim(config, srpt, *traffic);
  }
  obs::set_enabled(was_enabled);
  const std::uint64_t selected =
      registry.histograms().at("sched.matching_size").sum();
  ASSERT_GT(selected, 0u);
  EXPECT_EQ(registry.phase(obs::Phase::kRateSolve).work, selected);
}

TEST(FlowSimResult, ZeroHorizonThroughputIsZeroNotNan) {
  FlowSimResult result(0, 1);
  result.delivered = Bytes{1000};
  EXPECT_DOUBLE_EQ(result.throughput().bits_per_sec, 0.0);
}

}  // namespace
}  // namespace basrpt::flowsim
