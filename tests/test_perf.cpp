// Tests for the perf subsystem: the JSON writer, basrpt-bench-v1 record
// output, the allocation counter and its per-phase attribution, phase
// timing into the obs::Registry phase table (self/child accounting,
// spans, the basrpt-profile-v1 breakdown), the measurement harness, and
// the CellPool perf counters. The regression gate's comparator is
// checked by `scripts/perf_gate.py --self-test`, registered with CTest.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "exec/cell_pool.hpp"
#include "obs/metrics.hpp"
#include "perf/bench_record.hpp"
#include "perf/json.hpp"
#include "perf/measure.hpp"
#include "perf/profiler.hpp"

namespace {

using namespace basrpt;

// ----------------------------------------------------------------- JSON

TEST(PerfJson, RoundTripsTypesAndPreservesMemberOrder) {
  perf::json::Value doc = perf::json::Value::object();
  doc.set("zeta", perf::json::Value::number(1.5));
  doc.set("alpha", perf::json::Value::string("a \"quoted\"\nline"));
  doc.set("flag", perf::json::Value::boolean(true));
  doc.set("nothing", perf::json::Value());
  perf::json::Value arr = perf::json::Value::array();
  arr.push(perf::json::Value::number(-3.0));
  arr.push(perf::json::Value::number(1e18));
  arr.push(perf::json::Value::number(0.1));
  doc.set("items", std::move(arr));

  EXPECT_EQ(doc.members()[0].first, "zeta");  // insertion order kept
  EXPECT_EQ(doc.members()[1].first, "alpha");
  const std::string text = doc.serialize();
  EXPECT_EQ(text,
            "{\"zeta\":1.5,\"alpha\":\"a \\\"quoted\\\"\\nline\","
            "\"flag\":true,\"nothing\":null,"
            "\"items\":[-3,1e+18,0.10000000000000001]}");
  // Every number token reads back to the exact double that was set.
  EXPECT_EQ(std::strtod("1e+18", nullptr), 1e18);
  EXPECT_EQ(std::strtod("0.10000000000000001", nullptr), 0.1);
  // Serialization is deterministic; pretty-printing indents members and
  // ends the document with a newline.
  EXPECT_EQ(doc.serialize(), text);
  const std::string pretty = doc.serialize(2);
  EXPECT_EQ(pretty.rfind("{\n  \"zeta\": 1.5,\n  \"alpha\": ", 0), 0u);
  EXPECT_EQ(pretty.back(), '\n');
}

TEST(PerfJson, IntegersSerializeWithoutExponent) {
  perf::json::Value v = perf::json::Value::number(7384551.0);
  EXPECT_EQ(v.serialize(), "7384551");
}

TEST(PerfJson, TypedAccessorsRejectKindMismatch) {
  perf::json::Value v = perf::json::Value::object();
  v.set("a", perf::json::Value::number(1.0));
  EXPECT_THROW(v.at("a").as_string(), ConfigError);
  EXPECT_THROW(v.at("missing"), ConfigError);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.push(perf::json::Value()), ConfigError);
}

// --------------------------------------------------------- bench records

perf::BenchRecord sample_record() {
  perf::BenchRecord r = perf::make_record("unit", 100, 5);
  perf::BenchCase c;
  c.label = "decide/srpt/ports=144";
  c.param("ports", "144");
  c.metric("decisions_per_sec", 1.25e6);
  c.metric("ns_p99", 2048.0);
  c.metric("allocs_per_decision", 0.0);
  r.cases.push_back(c);
  return r;
}

TEST(BenchRecord, RoundTripsThroughDisk) {
  const std::string path = "test_perf_record.json";
  const perf::BenchRecord r = sample_record();
  perf::write_record_file(path, r);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);

  // The file holds exactly the record's document, newline-terminated.
  const perf::json::Value doc = perf::record_to_json(r);
  EXPECT_EQ(text.str(), doc.serialize(2));
  EXPECT_EQ(doc.at("schema").as_string(), perf::kBenchSchema);
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  EXPECT_EQ(doc.at("warmup").as_number(), 100.0);
  EXPECT_EQ(doc.at("reps").as_number(), 5.0);
  ASSERT_EQ(doc.at("cases").items().size(), 1u);
  const perf::json::Value& c = doc.at("cases").items()[0];
  EXPECT_EQ(c.at("label").as_string(), "decide/srpt/ports=144");
  EXPECT_EQ(c.at("metrics").at("decisions_per_sec").as_number(), 1.25e6);
  EXPECT_EQ(c.at("params").at("ports").as_string(), "144");
}

// ------------------------------------------------- allocation attribution

/// Routes phase timing into a private registry with observability on
/// for one test, restoring the global switches afterwards.
class ArmedRegistry {
 public:
  ArmedRegistry() : was_enabled_(obs::enabled()), bind_(&registry) {
    obs::set_enabled(true);
  }
  ~ArmedRegistry() {
    obs::set_enabled(was_enabled_);
    perf::set_alloc_counting(false);
    perf::set_span_recording(false);
  }
  obs::Registry registry;

 private:
  bool was_enabled_;
  obs::ScopedRegistryBind bind_;
};

TEST(Profiler, AllocationCounterAttributesToActivePhase) {
  ArmedRegistry armed;
  perf::set_alloc_counting(true);
  const std::uint64_t before = perf::alloc_total();
  {
    const perf::ScopedPhase phase(obs::Phase::kDecide);
    perf::note_alloc(64);
    perf::note_alloc(128);
  }
  perf::note_alloc(32);  // outside any phase -> unattributed

  const obs::PhaseStats& decide = armed.registry.phase(obs::Phase::kDecide);
  EXPECT_EQ(decide.allocs, 2u);
  EXPECT_EQ(decide.alloc_bytes, 192u);
  EXPECT_GE(perf::alloc_total() - before, 3u);
}

TEST(Profiler, RealAllocationsAreCountedWhileEnabled) {
  perf::set_alloc_counting(true);
  const std::uint64_t before = perf::alloc_total();
  {
    std::vector<int> v(1024, 7);
    // The vector's buffer must hit the interposer.
    EXPECT_NE(v.data(), nullptr);
  }
  const std::uint64_t after = perf::alloc_total();
  perf::set_alloc_counting(false);
  EXPECT_GT(after, before);

  // Off means off: no counting while disabled.
  const std::uint64_t off_before = perf::alloc_total();
  { std::vector<int> v(1024, 9); }
  EXPECT_EQ(perf::alloc_total(), off_before);
}

// ------------------------------------------------------- phase timing

void spin_for_us(int us) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::microseconds(us)) {
  }
}

TEST(Profiler, SelfTimeExcludesNestedPhases) {
  ArmedRegistry armed;
  const std::uint64_t t0 = perf::now_ns();
  {
    const perf::ScopedPhase outer(obs::Phase::kEventDispatch);
    spin_for_us(2000);
    {
      const perf::ScopedPhase inner(obs::Phase::kDecide);
      spin_for_us(4000);
    }
  }
  const std::uint64_t window = perf::now_ns() - t0;

  const obs::PhaseStats& outer =
      armed.registry.phase(obs::Phase::kEventDispatch);
  const obs::PhaseStats& inner = armed.registry.phase(obs::Phase::kDecide);
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 1u);
  EXPECT_EQ(inner.ns.count(), 1u);
  // Outer total includes the nested 4 ms; outer self does not.
  EXPECT_GE(outer.total_ns, 5'000'000u);
  EXPECT_LT(outer.self_ns, 4'000'000u);
  EXPECT_GE(inner.self_ns, 3'000'000u);
  // The breakdown stays additive: self times sum to ~the window.
  const double coverage = static_cast<double>(armed.registry.phase_self_ns()) /
                          static_cast<double>(window);
  EXPECT_GT(coverage, 0.9);
  EXPECT_LE(coverage, 1.0);
}

TEST(Profiler, DisarmedScopesRecordNothing) {
  obs::Registry registry;
  const obs::ScopedRegistryBind bind(&registry);
  ASSERT_FALSE(obs::enabled());
  {
    const perf::ScopedPhase phase(obs::Phase::kDecide);
    spin_for_us(100);
  }
  EXPECT_TRUE(registry.empty());
}

TEST(Profiler, SpanRecordingCapsAndExports) {
  ArmedRegistry armed;
  perf::set_span_recording(true);
  const std::uint64_t origin = perf::now_ns();
  for (int i = 0; i < 5; ++i) {
    const perf::ScopedPhase phase(obs::Phase::kDecide);
  }
  perf::set_span_recording(false);
  { const perf::ScopedPhase phase(obs::Phase::kDecide); }  // not recorded
  ASSERT_EQ(armed.registry.spans().size(), 5u);
  EXPECT_EQ(armed.registry.phase(obs::Phase::kDecide).calls, 6u);

  obs::FlowTracer tracer;
  perf::export_spans(armed.registry, origin, tracer);
  ASSERT_EQ(tracer.phase_spans().size(), 5u);
  EXPECT_EQ(tracer.phase_spans()[0].name, "decide");

  // The merged Chrome trace carries the spans on the perf track.
  std::ostringstream out;
  tracer.write_chrome_json(out);
  EXPECT_NE(out.str().find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(out.str().find("\"name\":\"perf\""), std::string::npos);

  // The cap holds per registry and across shard merges; overflow is
  // counted, never silent.
  obs::Registry full;
  for (std::size_t i = 0; i < obs::Registry::kSpanLimit + 2; ++i) {
    full.add_span({obs::Phase::kDecide, i, 1});
  }
  EXPECT_EQ(full.spans().size(), obs::Registry::kSpanLimit);
  EXPECT_EQ(full.spans_dropped(), 2u);
  full.merge_from(armed.registry);
  EXPECT_EQ(full.spans().size(), obs::Registry::kSpanLimit);
  EXPECT_EQ(full.spans_dropped(), 7u);
}

TEST(Profiler, ProfileJsonCarriesSchemaAndPhases) {
  ArmedRegistry armed;
  {
    const perf::ScopedPhase phase(obs::Phase::kCandidateRepack);
    spin_for_us(200);
  }
  const perf::json::Value doc =
      perf::profile_json(armed.registry, 1'000'000, 4);
  EXPECT_EQ(doc.at("schema").as_string(), "basrpt-profile-v1");
  EXPECT_EQ(doc.at("window_ns").as_number(), 1e6);
  ASSERT_NE(doc.at("phases").find("candidate_repack"), nullptr);
  EXPECT_EQ(doc.at("phases").find("decide"), nullptr);  // never entered
  EXPECT_DOUBLE_EQ(
      doc.at("phases").at("candidate_repack").at("calls").as_number(), 1.0);
  EXPECT_EQ(doc.at("alloc_unattributed").at("allocs").as_number(), 4.0);
}

// -------------------------------------------------- measurement harness

TEST(Measure, ReportsPlausibleNumbersAndZeroAllocSteadyState) {
  perf::MeasureOptions options;
  options.warmup = 10;
  options.reps = 3;
  options.rep_budget_ms = 2;
  volatile std::uint64_t sink = 0;
  const perf::Measurement m = perf::measure_op(
      [&] {
        std::uint64_t acc = 1;
        for (int i = 0; i < 50; ++i) {
          acc = acc * 6364136223846793005ull + 1442695040888963407ull;
        }
        sink = acc;
      },
      options);
  EXPECT_EQ(m.reps, 3);
  EXPECT_GT(m.iters_per_rep, 0u);
  EXPECT_GT(m.ops_per_sec, 0.0);
  EXPECT_LE(m.ns_p50, m.ns_p99);
  EXPECT_LE(m.ns_p99, m.ns_p999);
  EXPECT_DOUBLE_EQ(m.allocs_per_op, 0.0);  // the loop never allocates
}

TEST(Measure, SetupRunsUntimedAndAllocsExcludeSetup) {
  perf::MeasureOptions options;
  options.warmup = 5;
  options.reps = 2;
  options.rep_budget_ms = 1;
  options.max_iters = 200;
  int setups = 0;
  const perf::Measurement m = perf::measure_op(
      [] {}, options, [&] {
        ++setups;
        std::vector<int> churn(256);  // setup allocations must not count
        (void)churn;
      });
  EXPECT_GT(setups, 0);
  EXPECT_DOUBLE_EQ(m.allocs_per_op, 0.0);
}

// ------------------------------------------------------ CellPool perf

TEST(PoolPerf, ParallelRunRecordsBusyAndClaimCounts) {
  exec::CellPool pool(3);
  pool.run(
      12,
      [](std::size_t) {
        volatile std::uint64_t acc = 1;
        for (int i = 0; i < 20000; ++i) {
          acc = acc * 31 + 7;
        }
      },
      [](std::size_t) {});
  const exec::PoolPerf perf = exec::last_pool_perf();
  ASSERT_EQ(perf.workers(), 3u);
  EXPECT_GT(perf.wall_ns, 0u);
  std::uint64_t claimed = 0;
  for (const std::uint64_t c : perf.worker_claimed) {
    claimed += c;
  }
  EXPECT_EQ(claimed, 12u);
  std::uint64_t busy = 0;
  for (const std::uint64_t b : perf.worker_busy_ns) {
    busy += b;
  }
  EXPECT_GT(busy, 0u);
  EXPECT_GT(perf.busy_frac_mean(), 0.0);
  EXPECT_GE(perf.stall_frac(), 0.0);
}

}  // namespace
