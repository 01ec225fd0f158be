// Parallel sweep runner (src/exec) and the SchedulerSpec text format:
// ordered-commit determinism of CellPool, metric-shard merge semantics,
// tracer absorption, sweep-level jobs=1 vs jobs=N bitwise equivalence
// through the one loop, the bench session around it (shared-flag
// wiring, checkpoint resume at any jobs, the interrupt exit, the plot
// directory), and the parse/to_string round-trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "run_session.hpp"

#include "ckpt/manager.hpp"
#include "ckpt/snapshot.hpp"
#include "common/assert.hpp"
#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "exec/cell_pool.hpp"
#include "exec/sweep.hpp"
#include "fault/watchdog.hpp"
#include "flowsim/flow_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pktsim/packet_sim.hpp"
#include "sched/factory.hpp"
#include "switchsim/arrivals.hpp"
#include "switchsim/slotted_sim.hpp"

namespace basrpt {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------- cell pool

TEST(CellPool, ResolveJobsSemantics) {
  EXPECT_EQ(exec::resolve_jobs(1), 1);
  EXPECT_EQ(exec::resolve_jobs(7), 7);
  EXPECT_GE(exec::resolve_jobs(0), 1);  // hardware concurrency, >= 1
  EXPECT_GE(exec::resolve_jobs(-3), 1);
}

TEST(CellPool, SequentialPathAlternatesTaskAndCommit) {
  exec::CellPool pool(1);
  std::vector<std::string> log;
  pool.run(
      4, [&](std::size_t i) { log.push_back("task" + std::to_string(i)); },
      [&](std::size_t i) { log.push_back("commit" + std::to_string(i)); });
  const std::vector<std::string> expected = {"task0", "commit0", "task1",
                                             "commit1", "task2", "commit2",
                                             "task3", "commit3"};
  EXPECT_EQ(log, expected);
}

TEST(CellPool, ParallelCommitsInSubmissionOrder) {
  exec::CellPool pool(8);
  constexpr std::size_t kCells = 32;
  std::vector<int> values(kCells, 0);
  std::vector<std::size_t> commit_order;
  pool.run(
      kCells,
      [&](std::size_t i) {
        // Deterministically uneven task durations: late indices often
        // finish before early ones, which is exactly what ordered
        // commit must hide.
        std::this_thread::sleep_for(
            std::chrono::microseconds(((i * 37) % 5) * 200));
        values[i] = static_cast<int>(i) * 3 + 1;
      },
      [&](std::size_t i) { commit_order.push_back(i); });
  ASSERT_EQ(commit_order.size(), kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(values[i], static_cast<int>(i) * 3 + 1);
  }
}

TEST(CellPool, LowestFailingIndexWinsAndPrefixCommits) {
  exec::CellPool pool(4);
  std::vector<std::size_t> committed;
  try {
    pool.run(
        16,
        [&](std::size_t i) {
          if (i == 9) {  // wall-clock-first failure at a later index
            throw std::runtime_error("cell 9 failed");
          }
          if (i == 5) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            throw std::runtime_error("cell 5 failed");
          }
        },
        [&](std::size_t i) { committed.push_back(i); });
    FAIL() << "expected the cell-5 exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 5 failed");
  }
  const std::vector<std::size_t> expected = {0, 1, 2, 3, 4};
  EXPECT_EQ(committed, expected);
}

TEST(CellPool, CommitExceptionStopsTheRun) {
  exec::CellPool pool(4);
  std::vector<std::size_t> committed;
  EXPECT_THROW(
      pool.run(
          12, [&](std::size_t) {},
          [&](std::size_t i) {
            if (i == 3) {
              throw std::runtime_error("commit 3 failed");
            }
            committed.push_back(i);
          }),
      std::runtime_error);
  const std::vector<std::size_t> expected = {0, 1, 2};
  EXPECT_EQ(committed, expected);
}

// ------------------------------------------------------ registry merge

void record_phase(obs::Registry& r, obs::Phase phase, std::uint64_t ns) {
  obs::PhaseStats& row = r.phase(phase);
  ++row.calls;
  row.work += ns / 10;
  row.total_ns += ns;
  row.self_ns += ns;
  row.ns.add(ns);
  r.add_span({phase, ns, ns});
}

void fill_shard_a(obs::Registry& r) {
  r.counter("events").add(10);
  r.counter("only_a").add(2);
  r.gauge("level").set(1.5);
  r.histogram("lat").add(100);
  r.histogram("lat").add(7);
  record_phase(r, obs::Phase::kDecide, 40);
}

void fill_shard_b(obs::Registry& r) {
  r.counter("events").add(5);
  r.gauge("level").set(0.5);  // last write; peak stays 1.5 after merge
  r.histogram("lat").add(900000);
  record_phase(r, obs::Phase::kDecide, 60);
  record_phase(r, obs::Phase::kMatchSort, 5);
}

void expect_equal(const obs::Registry& x, const obs::Registry& y) {
  ASSERT_EQ(x.counters().size(), y.counters().size());
  for (const auto& [name, c] : x.counters()) {
    ASSERT_TRUE(y.counters().count(name)) << name;
    EXPECT_EQ(c.value(), y.counters().at(name).value()) << name;
  }
  ASSERT_EQ(x.gauges().size(), y.gauges().size());
  for (const auto& [name, g] : x.gauges()) {
    ASSERT_TRUE(y.gauges().count(name)) << name;
    EXPECT_EQ(g.value(), y.gauges().at(name).value()) << name;
    EXPECT_EQ(g.max(), y.gauges().at(name).max()) << name;
  }
  ASSERT_EQ(x.histograms().size(), y.histograms().size());
  for (const auto& [name, h] : x.histograms()) {
    ASSERT_TRUE(y.histograms().count(name)) << name;
    const auto& o = y.histograms().at(name);
    EXPECT_EQ(h.count(), o.count()) << name;
    EXPECT_EQ(h.sum(), o.sum()) << name;
    EXPECT_EQ(h.min(), o.min()) << name;
    EXPECT_EQ(h.max(), o.max()) << name;
    for (std::size_t k = 0; k < obs::LatencyHistogram::kBuckets; ++k) {
      EXPECT_EQ(h.bucket_count(k), o.bucket_count(k)) << name << "/" << k;
    }
  }
  for (std::size_t k = 0; k < obs::kPhaseCount; ++k) {
    const obs::PhaseStats& p = x.phase(static_cast<obs::Phase>(k));
    const obs::PhaseStats& q = y.phase(static_cast<obs::Phase>(k));
    EXPECT_EQ(p.calls, q.calls) << k;
    EXPECT_EQ(p.work, q.work) << k;
    EXPECT_EQ(p.total_ns, q.total_ns) << k;
    EXPECT_EQ(p.self_ns, q.self_ns) << k;
    EXPECT_EQ(p.ns.count(), q.ns.count()) << k;
  }
  ASSERT_EQ(x.spans().size(), y.spans().size());
  for (std::size_t i = 0; i < x.spans().size(); ++i) {
    EXPECT_EQ(x.spans()[i].start_ns, y.spans()[i].start_ns) << i;
  }
}

TEST(RegistryMerge, ShardMergeReproducesSequentialRecording) {
  obs::Registry sequential;
  fill_shard_a(sequential);
  fill_shard_b(sequential);

  obs::Registry a, b, merged;
  fill_shard_a(a);
  fill_shard_b(b);
  merged.merge_from(a);
  merged.merge_from(b);

  expect_equal(merged, sequential);
  EXPECT_EQ(merged.counters().at("events").value(), 15);
  EXPECT_EQ(merged.gauges().at("level").value(), 0.5);
  EXPECT_EQ(merged.gauges().at("level").max(), 1.5);
  EXPECT_EQ(merged.histograms().at("lat").count(), 3u);
  EXPECT_EQ(merged.histograms().at("lat").min(), 7u);
  EXPECT_EQ(merged.phase(obs::Phase::kDecide).calls, 2u);
  EXPECT_EQ(merged.phase(obs::Phase::kDecide).work, 10u);
  EXPECT_EQ(merged.phase(obs::Phase::kDecide).self_ns, 100u);
  EXPECT_EQ(merged.spans().size(), 3u);
  EXPECT_EQ(merged.histograms().at("lat").max(), 900000u);
}

TEST(RegistryMerge, MergeIsAssociativeInCommitOrder) {
  obs::Registry a, b, c;
  fill_shard_a(a);
  fill_shard_b(b);
  c.counter("events").add(1);
  c.gauge("level").set(9.0);
  c.histogram("lat").add(3);

  obs::Registry left;  // ((a + b) + c)
  left.merge_from(a);
  left.merge_from(b);
  left.merge_from(c);

  obs::Registry bc = b;  // (a + (b + c))
  bc.merge_from(c);
  obs::Registry right;
  right.merge_from(a);
  right.merge_from(bc);

  expect_equal(left, right);
}

TEST(RegistryBind, RoutesActiveToTheBoundShardOnly) {
  obs::Registry& global = obs::Registry::global();
  global.reset();
  obs::Registry shard;
  {
    obs::ScopedRegistryBind bind(&shard);
    obs::Registry::active().counter("bound").add(3);
    EXPECT_EQ(&obs::Registry::active(), &shard);
  }
  EXPECT_EQ(&obs::Registry::active(), &global);
  EXPECT_EQ(shard.counters().at("bound").value(), 3);
  EXPECT_EQ(global.counters().count("bound"), 0u);
  global.reset();
}

TEST(RegistryBind, NestingRestoresThePreviousBinding) {
  obs::Registry outer, inner;
  obs::ScopedRegistryBind bind_outer(&outer);
  {
    obs::ScopedRegistryBind bind_inner(&inner);
    EXPECT_EQ(&obs::Registry::active(), &inner);
    {
      obs::ScopedRegistryBind noop(nullptr);  // no-op binding
      EXPECT_EQ(&obs::Registry::active(), &inner);
    }
  }
  EXPECT_EQ(&obs::Registry::active(), &outer);
}

// ------------------------------------------------------- tracer absorb

TEST(TracerAbsorb, RenumbersRunsAndDrainsTheSource) {
  obs::FlowTracer target;
  target.begin_run();
  target.on_arrival(0, 1, 2, 0.1, 100.0);
  target.begin_run();
  target.on_arrival(0, 1, 2, 0.2, 200.0);  // target now at run 2

  obs::FlowTracer shard;
  shard.begin_run();
  shard.on_arrival(0, 3, 4, 0.3, 300.0);
  shard.on_completion(0, 3, 4, 0.4, 300.0);

  target.absorb(shard);
  ASSERT_EQ(target.size(), 4u);
  EXPECT_EQ(target.records()[1].run, 2);
  EXPECT_EQ(target.records()[2].run, 3);  // shard run 1 -> 2 + 1
  EXPECT_EQ(target.records()[3].run, 3);
  EXPECT_EQ(target.records()[2].src, 3);
  EXPECT_EQ(target.run(), 3);

  EXPECT_TRUE(shard.empty());
  shard.begin_run();  // a reused shard starts at run 1 again
  shard.on_arrival(9, 0, 0, 1.0, 1.0);
  EXPECT_EQ(shard.records()[0].run, 1);
}

// ------------------------------------------------------ seed derivation

TEST(CellSeed, DeterministicAndDecorrelated) {
  const std::uint64_t base = 42;
  EXPECT_EQ(exec::derive_cell_seed(base, 0), exec::derive_cell_seed(base, 0));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) {
    seeds.push_back(exec::derive_cell_seed(base, i));
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << i << "," << j;
    }
  }
  EXPECT_NE(exec::derive_cell_seed(1, 0), exec::derive_cell_seed(2, 0));
}

// ------------------------------------------------- sweep differentials

core::ExperimentConfig tiny_config(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.load = 0.6;
  config.query_share = 0.2;
  config.horizon = seconds(0.05);
  config.sample_every = milliseconds(2.0);
  config.seed = seed;
  config.scheduler = sched::SchedulerSpec::fast_basrpt(100.0);
  return config;
}

void expect_same_result(const core::ExperimentResult& a,
                        const core::ExperimentResult& b) {
  EXPECT_EQ(a.query_avg_ms, b.query_avg_ms);
  EXPECT_EQ(a.query_p99_ms, b.query_p99_ms);
  EXPECT_EQ(a.background_avg_ms, b.background_avg_ms);
  EXPECT_EQ(a.throughput_gbps, b.throughput_gbps);
  EXPECT_EQ(a.total_tail_mean_bytes, b.total_tail_mean_bytes);
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
}

/// Runs every cell of `sweep` through the one loop, without a session.
void run_through_loop(exec::Sweep& sweep, int jobs,
                      obs::FlowTracer* tracer = nullptr) {
  std::vector<std::optional<exec::CellOutput>> outputs(sweep.size());
  exec::run_cells(
      sweep.size(), jobs, tracer,
      [&](std::size_t i, obs::FlowTracer* cell_tracer) {
        outputs[i] = sweep.compute(i, cell_tracer);
      },
      [&](std::size_t i) { sweep.commit(i, *outputs[i]); });
}

std::vector<core::ExperimentResult> run_experiment_sweep(
    int jobs, obs::FlowTracer* tracer) {
  std::vector<core::ExperimentResult> results;
  exec::Sweep sweep;
  for (std::uint64_t i = 0; i < 4; ++i) {
    core::ExperimentConfig config =
        tiny_config(exec::derive_cell_seed(7, i));
    config.tracer = tracer;
    sweep.add("cell" + std::to_string(i), config,
              [&](const core::ExperimentResult& r) { results.push_back(r); });
  }
  run_through_loop(sweep, jobs, tracer);
  return results;
}

TEST(SweepDifferential, ParallelExperimentCellsMatchSequentialBitwise) {
  const auto seq = run_experiment_sweep(1, nullptr);
  const auto par = run_experiment_sweep(4, nullptr);
  ASSERT_EQ(seq.size(), 4u);
  ASSERT_EQ(par.size(), 4u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    expect_same_result(seq[i], par[i]);
  }
}

TEST(SweepDifferential, SharedTracerStreamIsIdenticalAtAnyJobs) {
  obs::FlowTracer t_seq, t_par;
  run_experiment_sweep(1, &t_seq);
  run_experiment_sweep(4, &t_par);
  ASSERT_GT(t_seq.size(), 0u);
  ASSERT_EQ(t_seq.size(), t_par.size());
  for (std::size_t i = 0; i < t_seq.size(); ++i) {
    const auto& a = t_seq.records()[i];
    const auto& b = t_par.records()[i];
    EXPECT_EQ(static_cast<int>(a.event), static_cast<int>(b.event)) << i;
    EXPECT_EQ(a.flow, b.flow) << i;
    EXPECT_EQ(a.src, b.src) << i;
    EXPECT_EQ(a.dst, b.dst) << i;
    EXPECT_EQ(a.time_sec, b.time_sec) << i;
    EXPECT_EQ(a.remaining, b.remaining) << i;
    EXPECT_EQ(a.run, b.run) << i;
  }
}

std::vector<switchsim::SlottedResult> run_slotted_sweep(int jobs) {
  std::vector<switchsim::SlottedResult> results;
  const auto rates = switchsim::skewed_rates(4, 0.8, 0.6);
  switchsim::SizeMix mix;
  mix.small = 1;
  mix.large = 8;
  mix.p_small = 0.9;
  exec::Sweep sweep;
  for (const double v : {10.0, 1000.0}) {
    switchsim::SlottedConfig config;
    config.n_ports = 4;
    config.horizon = 2000;
    config.sample_every = 16;
    sweep.add_slotted(
        "v" + std::to_string(static_cast<int>(v)), config,
        [v] {
          return sched::make_scheduler(sched::SchedulerSpec::fast_basrpt(v));
        },
        [rates, mix] {
          return switchsim::bernoulli_arrivals(rates, mix, 2000, Rng(3));
        },
        [&](const switchsim::SlottedResult& r) { results.push_back(r); });
  }
  run_through_loop(sweep, jobs);
  return results;
}

TEST(SweepDifferential, ParallelSlottedCellsMatchSequentialBitwise) {
  const auto seq = run_slotted_sweep(1);
  const auto par = run_slotted_sweep(4);
  ASSERT_EQ(seq.size(), 2u);
  ASSERT_EQ(par.size(), 2u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].backlog_packets.mean(), par[i].backlog_packets.mean());
    EXPECT_EQ(seq[i].penalty.mean(), par[i].penalty.mean());
    EXPECT_EQ(seq[i].throughput_pkts_per_slot(),
              par[i].throughput_pkts_per_slot());
    EXPECT_EQ(seq[i].fct.summary(stats::FlowClass::kQuery).mean_seconds,
              par[i].fct.summary(stats::FlowClass::kQuery).mean_seconds);
  }
}

// --------------------------------------- run session: parallel resume

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("basrpt_exec_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Declares `count` cells on `session` and returns their results.
std::vector<core::ExperimentResult> run_session_sweep(
    bench::RunSession& session, std::size_t count) {
  std::vector<std::optional<core::ExperimentResult>> slots(count);
  exec::Sweep sweep;
  for (std::size_t i = 0; i < count; ++i) {
    core::ExperimentConfig config =
        tiny_config(exec::derive_cell_seed(11, i));
    session.apply(config);
    sweep.add("cell" + std::to_string(i), config,
              [&slots, i](const core::ExperimentResult& r) { slots[i] = r; });
  }
  session.run_sweep(sweep);
  std::vector<core::ExperimentResult> results;
  for (auto& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

TEST(RunSession, ResumesAStoredPrefixInsideAParallelSweep) {
  TempDir tmp;
  const std::string dir = tmp.path.string();

  // Reference: all four cells, no checkpointing, sequential.
  std::vector<core::ExperimentResult> reference;
  {
    CliParser cli("test_exec", "reference");
    const char* argv[] = {"test_exec"};
    ASSERT_TRUE(bench::parse_common(cli, 1, argv));
    bench::RunSession session(cli, "exec_resume", 4, seconds(1.0));
    reference = run_session_sweep(session, 4);
  }

  // Phase 1: the first two cells, checkpointed, at --jobs 2.
  {
    CliParser cli("test_exec", "phase1");
    const char* argv[] = {"test_exec", "--checkpoint-dir", dir.c_str(),
                          "--jobs", "2"};
    ASSERT_TRUE(bench::parse_common(cli, 5, argv));
    bench::RunSession session(cli, "exec_resume", 4, seconds(1.0));
    const auto phase1 = run_session_sweep(session, 2);
    ASSERT_EQ(phase1.size(), 2u);
    expect_same_result(phase1[0], reference[0]);
    expect_same_result(phase1[1], reference[1]);
  }

  // Phase 2: all four cells with --resume latest at --jobs 4 — the two
  // stored cells replay from the snapshot, the rest run in parallel.
  {
    CliParser cli("test_exec", "phase2");
    const char* argv[] = {"test_exec", "--checkpoint-dir", dir.c_str(),
                          "--resume",  "latest",           "--jobs",
                          "4"};
    ASSERT_TRUE(bench::parse_common(cli, 7, argv));
    bench::RunSession session(cli, "exec_resume", 4, seconds(1.0));
    const auto resumed = run_session_sweep(session, 4);
    ASSERT_EQ(resumed.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      expect_same_result(resumed[i], reference[i]);
    }
  }
}

TEST(RunSession, SlottedCellsGetTheFaultPlanAndWatchdog) {
  CliParser cli("test_exec", "slotted faults");
  const char* argv[] = {"test_exec", "--fault-plan=random", "--watchdog",
                        "60"};
  ASSERT_TRUE(bench::parse_common(cli, 4, argv));
  // Slotted plans are in slot units: the random plan spans the horizon.
  const switchsim::Slot horizon = 2000;
  bench::RunSession session(cli, "exec_slotted_faults", 4, horizon);
  ASSERT_TRUE(session.fault_active());

  switchsim::SlottedConfig config;
  config.n_ports = 4;
  config.horizon = horizon;
  config.sample_every = 16;
  session.apply(config);
  EXPECT_EQ(config.fault_plan, &session.fault_plan());
  EXPECT_TRUE(config.watchdog.enabled());

  const auto rates = switchsim::skewed_rates(4, 0.8, 0.6);
  switchsim::SizeMix mix;
  mix.small = 1;
  mix.large = 8;
  mix.p_small = 0.9;
  std::optional<switchsim::SlottedResult> result;
  exec::Sweep sweep;
  sweep.add_slotted(
      "faulty", config,
      [] {
        return sched::make_scheduler(sched::SchedulerSpec::fast_basrpt(100.0));
      },
      [rates, mix, horizon] {
        return switchsim::bernoulli_arrivals(rates, mix, horizon, Rng(3));
      },
      [&](const switchsim::SlottedResult& r) { result = r; });
  session.run_sweep(sweep);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->fault_stats.transitions, 0);
}

TEST(RunSession, FaultPlanLineNamesTheHorizonUnit) {
  CliParser cli("test_exec", "fault plan unit");
  const char* argv[] = {"test_exec", "--fault-plan=random"};
  ASSERT_TRUE(bench::parse_common(cli, 2, argv));
  const auto plan_line = [](const auto& make_session) {
    ::testing::internal::CaptureStdout();
    make_session();
    return ::testing::internal::GetCapturedStdout();
  };
  // A slotted horizon is in slots, so the plan's span is too.
  const std::string slotted = plan_line([&] {
    bench::RunSession session(cli, "exec_unit_slots", 4,
                              switchsim::Slot{20000});
  });
  EXPECT_NE(slotted.find(" events over [0, "), std::string::npos) << slotted;
  EXPECT_TRUE(slotted.ends_with("] slots\n")) << slotted;
  const std::string timed = plan_line([&] {
    bench::RunSession session(cli, "exec_unit_seconds", 4, seconds(1.0));
  });
  EXPECT_TRUE(timed.ends_with("] s\n")) << timed;
}

TEST(RunSession, ApplySetsEverySharedFlagOnEveryConfigKind) {
  TempDir tmp;
  const std::string trace = (tmp.path / "trace.json").string();
  CliParser cli("test_exec", "apply");
  const char* argv[] = {"test_exec",   "--paranoid",  "--fault-plan=random",
                        "--watchdog",  "60",          "--trace",
                        trace.c_str(), "--heartbeat", "30"};
  ASSERT_TRUE(bench::parse_common(cli, 9, argv));
  const LogLevel level = log_level();  // --heartbeat raises it to INFO
  bench::RunSession session(cli, "exec_apply", 4, seconds(1.0),
                            bench::RunSession::Checkpointing::kNone);
  set_log_level(level);
  ASSERT_TRUE(session.fault_active());
  const auto applied = [&](auto config) {
    session.apply(config);
    EXPECT_NE(config.tracer, nullptr);
    EXPECT_EQ(config.fault_plan, &session.fault_plan());
    EXPECT_EQ(config.watchdog.stall_wall_sec, 60.0);
    EXPECT_TRUE(config.paranoid);
    return config;
  };
  EXPECT_EQ(applied(core::ExperimentConfig{}).heartbeat_wall_sec, 30.0);
  EXPECT_EQ(applied(flowsim::FlowSimConfig{}).heartbeat_wall_sec, 30.0);
  EXPECT_EQ(applied(switchsim::SlottedConfig{}).heartbeat_wall_sec, 30.0);
  applied(pktsim::PacketSimConfig{});  // the packet model has no heartbeat
}

void expect_same_slotted(const switchsim::SlottedResult& a,
                         const switchsim::SlottedResult& b) {
  EXPECT_EQ(a.backlog_packets.mean(), b.backlog_packets.mean());
  EXPECT_EQ(a.penalty.mean(), b.penalty.mean());
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.left_packets, b.left_packets);
  EXPECT_EQ(a.scheduler_invocations, b.scheduler_invocations);
  EXPECT_EQ(a.fct.summary(stats::FlowClass::kQuery).mean_seconds,
            b.fct.summary(stats::FlowClass::kQuery).mean_seconds);
}

/// Results of a slotted session sweep, and the global registry's decide
/// calls read at each commit (cumulative; 0 without --metrics).
struct SlottedRun {
  std::vector<switchsim::SlottedResult> results;
  std::vector<std::uint64_t> decides;
};

/// Declares `count` slotted cells of 2000 slots (fast BASRPT, V = 10,
/// 20, ...) on `session` and runs them.
SlottedRun run_session_slotted(bench::RunSession& session,
                               std::size_t count) {
  SlottedRun run;
  const auto rates = switchsim::skewed_rates(4, 0.8, 0.6);
  switchsim::SizeMix mix;
  mix.small = 1;
  mix.large = 8;
  mix.p_small = 0.9;
  exec::Sweep sweep;
  for (std::size_t i = 0; i < count; ++i) {
    switchsim::SlottedConfig config;
    config.n_ports = 4;
    config.horizon = 2000;
    config.sample_every = 16;
    session.apply(config);
    const double v = 10.0 * static_cast<double>(i + 1);
    sweep.add_slotted(
        "v" + std::to_string(i), config,
        [v] {
          return sched::make_scheduler(sched::SchedulerSpec::fast_basrpt(v));
        },
        [rates, mix] {
          return switchsim::bernoulli_arrivals(rates, mix, 2000, Rng(3));
        },
        [&run](const switchsim::SlottedResult& r) {
          run.results.push_back(r);
          run.decides.push_back(
              obs::Registry::global().phase(obs::Phase::kDecide).calls);
        });
  }
  session.run_sweep(sweep);
  return run;
}

std::size_t count_of(const std::string& text, const std::string& what) {
  std::size_t n = 0;
  for (std::size_t at = text.find(what); at != std::string::npos;
       at = text.find(what, at + 1)) {
    ++n;
  }
  return n;
}

TEST(RunSession, SlottedSweepAtJobsTwoCheckpointsEveryCell) {
  TempDir tmp;
  const std::string dir = tmp.path.string();
  CliParser cli("test_exec", "slotted jobs 2");
  const char* argv[] = {"test_exec", "--checkpoint-dir", dir.c_str(),
                        "--checkpoint-every", "500", "--jobs", "2"};
  ASSERT_TRUE(bench::parse_common(cli, 7, argv));
  bench::RunSession session(cli, "exec_slotted_j2", 4, switchsim::Slot{2000});
  ::testing::internal::CaptureStderr();
  run_session_slotted(session, 3);
  const std::string err = ::testing::internal::GetCapturedStderr();
  // No mid-cell capture at --jobs > 1, so each committed cell writes one
  // checkpoint of the committed prefix.
  EXPECT_EQ(count_of(err, "checkpoint: wrote "), 3u) << err;
  EXPECT_EQ(count_of(err, "mid-run state"), 0u) << err;
  for (const char* prefix : {"(1 cells)", "(2 cells)", "(3 cells)"}) {
    EXPECT_EQ(count_of(err, prefix), 1u) << prefix << "\n" << err;
  }
}

TEST(RunSession, FinishedSlottedSweepAtJobsOneEndsOnACheckpointOfEveryCell) {
  // At --jobs 1 --checkpoint-every counts slots inside a slotted cell,
  // so each cell is also checkpointed at its commit: once the sweep has
  // finished, the newest checkpoint holds every cell and no mid-run
  // state, and a resume from it recomputes nothing.
  TempDir tmp;
  const std::string dir = tmp.path.string();
  CliParser cli("test_exec", "slotted jobs 1");
  const char* argv[] = {"test_exec", "--checkpoint-dir", dir.c_str(),
                        "--checkpoint-every", "500"};
  ASSERT_TRUE(bench::parse_common(cli, 5, argv));
  bench::RunSession session(cli, "exec_slotted_j1", 4, switchsim::Slot{2000});
  ::testing::internal::CaptureStderr();
  run_session_slotted(session, 3);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_GT(count_of(err, "mid-run state"), 0u) << err;
  for (const char* prefix : {"(1 cells)", "(2 cells)", "(3 cells)"}) {
    EXPECT_EQ(count_of(err, prefix), 1u) << prefix << "\n" << err;
  }
  const std::string latest =
      ckpt::CheckpointManager::latest(dir, "exec_slotted_j1");
  ASSERT_FALSE(latest.empty());
  const ckpt::Snapshot snap = ckpt::Snapshot::from_file(latest);
  ckpt::SectionReader meta = snap.reader("meta");
  (void)meta.text("bench");
  (void)meta.text("fingerprint");
  ASSERT_EQ(meta.u64("cells"), 3u);
  for (int i = 0; i < 3; ++i) {
    (void)meta.text("cell");
  }
  EXPECT_EQ(meta.u64("wip"), 0u);
}

TEST(RunSession, MidCellSlottedCheckpointResumesAtAnyJobs) {
  TempDir tmp;
  const std::string dir = tmp.path.string();
  // --metrics arms the phase counters: a cell resumed mid-run decides
  // only in the slots after its checkpoint.
  const std::string metrics = (tmp.path / "unused.json").string();
  const bool was_enabled = obs::enabled();
  SlottedRun reference;
  {
    CliParser cli("test_exec", "reference");
    const char* argv[] = {"test_exec", "--metrics", metrics.c_str()};
    ASSERT_TRUE(bench::parse_common(cli, 3, argv));
    bench::RunSession session(cli, "exec_midcell", 4, switchsim::Slot{2000});
    reference = run_session_slotted(session, 4);
  }
  ASSERT_EQ(reference.decides.size(), 4u);
  const std::uint64_t cell1_decides =
      reference.decides[1] - reference.decides[0];
  ASSERT_GT(cell1_decides, 0u);

  // Phase 1 at --jobs 1: the first two cells, captured every 500 slots.
  // Rotation keeps the newest three files, all taken inside cell 1.
  {
    CliParser cli("test_exec", "phase1");
    const char* argv[] = {"test_exec", "--checkpoint-dir", dir.c_str(),
                          "--checkpoint-every", "500"};
    ASSERT_TRUE(bench::parse_common(cli, 5, argv));
    bench::RunSession session(cli, "exec_midcell", 4, switchsim::Slot{2000});
    ::testing::internal::CaptureStderr();
    run_session_slotted(session, 2);
    ::testing::internal::GetCapturedStderr();
  }
  std::string midcell;
  for (const auto& entry : fs::directory_iterator(tmp.path)) {
    if (entry.path().extension() != ".ckpt") {
      continue;
    }
    const ckpt::Snapshot snap =
        ckpt::Snapshot::from_file(entry.path().string());
    ckpt::SectionReader meta = snap.reader("meta");
    (void)meta.text("bench");
    (void)meta.text("fingerprint");
    const std::uint64_t cells = meta.u64("cells");
    for (std::uint64_t i = 0; i < cells; ++i) {
      (void)meta.text("cell");
    }
    if (cells == 1 && meta.u64("wip") == 1) {
      midcell = entry.path().string();
    }
  }
  ASSERT_FALSE(midcell.empty()) << "no checkpoint taken inside cell 1";

  // Resume all four cells from that file: cell 0 replays, cell 1
  // continues from its mid-run state, cells 2-3 run fresh.
  for (const char* jobs : {"1", "4"}) {
    SCOPED_TRACE(std::string("jobs ") + jobs);
    CliParser cli("test_exec", "resume");
    const char* argv[] = {"test_exec", "--resume", midcell.c_str(),
                          "--metrics", metrics.c_str(), "--jobs", jobs};
    ASSERT_TRUE(bench::parse_common(cli, 7, argv));
    bench::RunSession session(cli, "exec_midcell", 4, switchsim::Slot{2000});
    ::testing::internal::CaptureStderr();
    const SlottedRun resumed = run_session_slotted(session, 4);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(count_of(err, "cell 'v0' replayed"), 1u) << err;
    EXPECT_EQ(count_of(err, "cell 'v1' resuming mid-run at slot"), 1u)
        << err;
    ASSERT_EQ(resumed.results.size(), 4u);
    EXPECT_EQ(resumed.decides[0], 0u);  // replayed, not recomputed
    EXPECT_GT(resumed.decides[1], 0u);
    EXPECT_LT(resumed.decides[1], cell1_decides);
    for (std::size_t i = 0; i < 4; ++i) {
      SCOPED_TRACE("cell " + std::to_string(i));
      expect_same_slotted(resumed.results[i], reference.results[i]);
    }
  }
  obs::set_enabled(was_enabled);
  obs::Registry::global().reset();
}

TEST(RunSession, InterruptedRunCellsTaskExitsThroughTheSession) {
  TempDir tmp;
  fs::create_directories(tmp.path);
  const std::string metrics = (tmp.path / "metrics.json").string();
  const auto interrupted_sweep = [&] {
    CliParser cli("test_exec", "interrupted");
    const char* argv[] = {"test_exec", "--metrics", metrics.c_str(),
                          "--jobs", "2"};
    if (!bench::parse_common(cli, 5, argv)) {
      std::exit(1);
    }
    bench::RunSession session(cli, "exec_interrupt", 4, seconds(1.0),
                              bench::RunSession::Checkpointing::kNone);
    session.run_cells(
        4,
        [](std::size_t i, obs::FlowTracer*) {
          if (i == 2) {
            throw InterruptedError(SIGINT);
          }
        },
        [](std::size_t) {});
    std::exit(0);
  };
  EXPECT_EXIT(interrupted_sweep(), ::testing::ExitedWithCode(128 + SIGINT),
              "interrupted \\(interrupted by SIGINT\\): partial artifacts "
              "flushed");
  std::ifstream in(metrics);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"interrupted\""), std::string::npos) << doc;
}

TEST(RunSession, StallInAParallelSweepNamesTheCell) {
  const auto stalled_sweep = [] {
    CliParser cli("test_exec", "stalled");
    const char* argv[] = {"test_exec", "--jobs", "2"};
    if (!bench::parse_common(cli, 3, argv)) {
      std::exit(1);
    }
    bench::RunSession session(cli, "exec_stall", 4, switchsim::Slot{200});
    const auto rates = switchsim::skewed_rates(4, 0.8, 0.6);
    switchsim::SizeMix mix;
    exec::Sweep sweep;
    for (int i = 0; i < 3; ++i) {
      switchsim::SlottedConfig config;
      config.n_ports = 4;
      config.horizon = 200;
      sweep.add_slotted(
          "cell" + std::to_string(i), config,
          [i]() -> sched::SchedulerPtr {
            if (i == 1) {
              throw fault::StallError("sim-time frozen");
            }
            return sched::make_scheduler(sched::SchedulerSpec::srpt());
          },
          [rates, mix] {
            return switchsim::bernoulli_arrivals(rates, mix, 200, Rng(3));
          },
          [](const switchsim::SlottedResult&) {});
    }
    session.run_sweep(sweep);
    std::exit(0);
  };
  EXPECT_EXIT(stalled_sweep(), ::testing::ExitedWithCode(3),
              "stall during cell 'cell1': sim-time frozen");
}

// -------------------------------------------------------- plot directory

TEST(PlotDir, MissingNestedDirectoryIsCreated) {
  TempDir tmp;
  const std::string dir = (tmp.path / "figs" / "run1").string();
  CliParser cli("test_exec", "plot dir");
  cli.text("plot-dir", "", "figure files");
  const char* argv[] = {"test_exec", "--plot-dir", dir.c_str()};
  ASSERT_TRUE(bench::parse_common(cli, 3, argv));
  EXPECT_EQ(bench::plot_dir(cli), dir);
  EXPECT_TRUE(fs::is_directory(dir));
}

TEST(PlotDir, UncreatableDirectoryExitsTwo) {
  TempDir tmp;
  fs::create_directories(tmp.path);
  const fs::path file = tmp.path / "regular";
  std::ofstream(file) << "not a directory\n";
  const std::string dir = (file / "plots").string();
  CliParser cli("test_exec", "plot dir");
  cli.text("plot-dir", "", "figure files");
  const char* argv[] = {"test_exec", "--plot-dir", dir.c_str()};
  ASSERT_TRUE(bench::parse_common(cli, 3, argv));
  EXPECT_EXIT(bench::plot_dir(cli), ::testing::ExitedWithCode(2),
              "error: --plot-dir ");
  EXPECT_FALSE(fs::exists(dir));
}

/// One --profile --metrics session over four cells at `jobs`; returns
/// the merged global registry it wrote.
obs::Registry profiled_sweep(const std::string& jobs,
                             const std::string& metrics_path) {
  CliParser cli("test_exec", "profiled");
  const char* argv[] = {"test_exec", "--profile", "--metrics",
                        metrics_path.c_str(), "--jobs", jobs.c_str()};
  EXPECT_TRUE(bench::parse_common(cli, 6, argv));
  bench::RunSession session(cli, "exec_profile", 4, seconds(1.0));
  run_session_sweep(session, 4);
  session.finish();
  return obs::Registry::global();
}

TEST(RunSession, ProfiledSweepCountsAreExactAtAnyJobs) {
  TempDir tmp;
  fs::create_directories(tmp.path);
  const bool was_enabled = obs::enabled();
  const obs::Registry seq =
      profiled_sweep("1", (tmp.path / "j1.json").string());
  const obs::Registry par =
      profiled_sweep("4", (tmp.path / "j4.json").string());
  obs::set_enabled(was_enabled);
  obs::Registry::global().reset();

  // Phase timings ride the per-cell shards: call and work counts,
  // counters and histogram counts merge exactly; only wall-clock ns may
  // differ.
  EXPECT_GT(seq.phase(obs::Phase::kDecide).calls, 0u);
  EXPECT_GT(seq.phase(obs::Phase::kMatchSort).work, 0u);
  EXPECT_GT(seq.phase(obs::Phase::kCandidateRepack).work, 0u);
  for (std::size_t k = 0; k < obs::kPhaseCount; ++k) {
    const auto phase = static_cast<obs::Phase>(k);
    EXPECT_EQ(seq.phase(phase).calls, par.phase(phase).calls)
        << obs::phase_name(phase);
    EXPECT_EQ(seq.phase(phase).work, par.phase(phase).work)
        << obs::phase_name(phase);
    EXPECT_EQ(seq.phase(phase).ns.count(), par.phase(phase).ns.count())
        << obs::phase_name(phase);
  }
  ASSERT_EQ(seq.counters().size(), par.counters().size());
  for (const auto& [name, counter] : seq.counters()) {
    ASSERT_TRUE(par.counters().count(name)) << name;
    EXPECT_EQ(counter.value(), par.counters().at(name).value()) << name;
  }
  ASSERT_EQ(seq.histograms().size(), par.histograms().size());
  for (const auto& [name, hist] : seq.histograms()) {
    ASSERT_TRUE(par.histograms().count(name)) << name;
    EXPECT_EQ(hist.count(), par.histograms().at(name).count()) << name;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(
                seq.counters().at("sched.decisions").value()),
            seq.phase(obs::Phase::kDecide).calls);
}

// ------------------------------------------------- scheduler spec text

TEST(SchedulerSpecText, RoundTripsEveryFactorySpec) {
  const std::vector<sched::SchedulerSpec> specs = {
      sched::SchedulerSpec::srpt(),
      sched::SchedulerSpec::fast_basrpt(2500.0),
      sched::SchedulerSpec::threshold_srpt(1000.0),
      sched::SchedulerSpec::exact_basrpt(416.25),
      sched::SchedulerSpec::maxweight(),
      sched::SchedulerSpec::fifo(),
      sched::SchedulerSpec::dist_basrpt(138.88888888888889, 4),
      sched::SchedulerSpec::fast_basrpt(2500.0).with_size_error(4.0),
  };
  for (const auto& spec : specs) {
    const std::string text = spec.to_string();
    const sched::SchedulerSpec parsed = sched::SchedulerSpec::parse(text);
    EXPECT_EQ(parsed.policy, spec.policy) << text;
    EXPECT_EQ(parsed.to_string(), text) << text;
    if (spec.policy == sched::Policy::kFastBasrpt ||
        spec.policy == sched::Policy::kExactBasrpt ||
        spec.policy == sched::Policy::kDistBasrpt) {
      EXPECT_EQ(parsed.v, spec.v) << text;
    }
    if (spec.policy == sched::Policy::kThresholdSrpt) {
      EXPECT_EQ(parsed.threshold_packets, spec.threshold_packets) << text;
    }
    if (spec.policy == sched::Policy::kDistBasrpt) {
      EXPECT_EQ(parsed.rounds, spec.rounds) << text;
    }
    EXPECT_EQ(parsed.size_error, spec.size_error) << text;
    if (spec.size_error > 1.0) {
      EXPECT_EQ(parsed.noise_seed, spec.noise_seed) << text;
    }
  }
}

TEST(SchedulerSpecText, UnderscoresAndDashesAreInterchangeable) {
  const auto a = sched::SchedulerSpec::parse("fast_basrpt:v=2500");
  const auto b = sched::SchedulerSpec::parse("fast-basrpt:v=2500");
  EXPECT_EQ(a.policy, sched::Policy::kFastBasrpt);
  EXPECT_EQ(a.v, b.v);
  const auto c = sched::SchedulerSpec::parse("srpt:noise_seed=9:err=2");
  EXPECT_EQ(c.noise_seed, 9u);
  EXPECT_EQ(c.size_error, 2.0);
}

TEST(SchedulerSpecText, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",                      // empty policy
      "bogus",                 // unknown policy
      "srpt:v=5",              // v does not apply to srpt
      "fast-basrpt:v=",        // empty value
      "fast-basrpt:v=abc",     // not a number
      "fast-basrpt:v=1:v=2",   // repeated key
      "fast-basrpt:v=-3",      // v must be >= 0
      "dist-basrpt:rounds=0",  // rounds must be >= 1
      "srpt:err=0.5",          // err must be >= 1
      "fast-basrpt:unknown=1",  // unknown key
      "srpt:threshold=10",     // threshold only for threshold-srpt
      "fast-basrpt:rounds=2",  // rounds only for dist-basrpt
      "fast-basrpt:v=inf",     // v must be finite
      "fast-basrpt:v=nan",     // ... and a number
      "srpt:err=inf",          // err must be finite
      "fast-basrpt:v= 5",      // no leading blank
      "fast-basrpt:v=0x10",    // no hexadecimal
      "srpt:err=2:noise-seed=99999999999999999999",  // past int64
  };
  for (const auto& text : bad) {
    EXPECT_THROW(sched::SchedulerSpec::parse(text), ConfigError) << text;
  }
}

}  // namespace
}  // namespace basrpt
