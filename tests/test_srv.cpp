// Serving-layer tests: basrpt-feed-v1 codec hardening, the overload
// health machine (table-driven, fake virtual clock), SLO accounting,
// the server checkpoint codec, the kill-and-resume differential that
// anchors basrptd's crash-recovery story, and the socket transport:
// wire codec, connection state machine (fake clock), UDS end-to-end
// and chaos-link differentials, interrupt + reconnect-with-replay.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/manager.hpp"
#include "ckpt/snapshot.hpp"
#include "common/assert.hpp"
#include "common/interrupt.hpp"
#include "common/io.hpp"
#include "common/net.hpp"
#include "fault/chaos_link.hpp"
#include "fault/fault_plan.hpp"
#include "perf/profiler.hpp"
#include "srv/client.hpp"
#include "srv/connection.hpp"
#include "srv/feed.hpp"
#include "srv/health.hpp"
#include "srv/loadgen.hpp"
#include "srv/server.hpp"
#include "srv/slo.hpp"
#include "srv/state_codec.hpp"
#include "srv/transport.hpp"
#include "srv/wire.hpp"

namespace basrpt {
namespace {

namespace fs = std::filesystem;

using srv::HealthState;

// ----------------------------------------------------------------- feed

srv::FeedRecord make_record(double t, workload::PortId src,
                            workload::PortId dst, std::int64_t size,
                            stats::FlowClass cls = stats::FlowClass::kQuery,
                            std::int32_t tenant = 0) {
  srv::FeedRecord rec;
  rec.arrival.time = SimTime{t};
  rec.arrival.src = src;
  rec.arrival.dst = dst;
  rec.arrival.size = Bytes{size};
  rec.arrival.cls = cls;
  rec.tenant = tenant;
  return rec;
}

/// Valid header plus the given body lines, each newline-terminated.
std::string feed_text(const std::vector<std::string>& lines) {
  std::string text = std::string(srv::kFeedMagic) + "\n";
  for (const std::string& line : lines) {
    text += line + "\n";
  }
  return text;
}

/// Parses `text`, expecting a ParseError; returns its 1-based line.
std::size_t parse_error_line(const std::string& text) {
  std::istringstream in(text);
  try {
    srv::read_feed(in);
  } catch (const ParseError& e) {
    return e.line();
  }
  ADD_FAILURE() << "expected ParseError for:\n" << text;
  return 0;
}

TEST(Feed, RoundTripPreservesEveryField) {
  const std::vector<srv::FeedRecord> records = {
      make_record(0.0, 0, 1, 1, stats::FlowClass::kQuery, 0),
      make_record(1.25e-4, 3, 9, 20'000, stats::FlowClass::kQuery, 2),
      make_record(3.1e-4, 4, 5, 1'048'576, stats::FlowClass::kBackground, 1),
      // Same timestamp twice (non-decreasing, not strictly increasing).
      make_record(3.1e-4, 5, 4, 7, stats::FlowClass::kBackground, 0),
      make_record(0.75, 7, 0, 123'456'789, stats::FlowClass::kQuery, 41),
  };
  std::ostringstream out;
  srv::write_feed(out, records);

  std::istringstream in(out.str());
  srv::FeedReader reader(in);
  std::vector<srv::FeedRecord> got;
  while (auto rec = reader.next()) {
    got.push_back(*rec);
  }
  EXPECT_TRUE(reader.clean_end());
  EXPECT_TRUE(reader.done());
  ASSERT_EQ(got.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(got[i].arrival.time.seconds, records[i].arrival.time.seconds);
    EXPECT_EQ(got[i].arrival.src, records[i].arrival.src);
    EXPECT_EQ(got[i].arrival.dst, records[i].arrival.dst);
    EXPECT_EQ(got[i].arrival.size.count, records[i].arrival.size.count);
    EXPECT_EQ(got[i].arrival.cls, records[i].arrival.cls);
    EXPECT_EQ(got[i].tenant, records[i].tenant);
  }
}

TEST(Feed, HeaderIsMandatory) {
  EXPECT_EQ(parse_error_line("not-a-feed\nflow,0,0,1,10,q\nend\n"), 1u);
  EXPECT_EQ(parse_error_line(""), 1u);
  // Another format's magic (the retired trace format's) is not a feed.
  EXPECT_EQ(parse_error_line("basrpt-trace-v1\nend\n"), 1u);
}

TEST(Feed, CleanEndVersusProducerGone) {
  {
    std::istringstream in(feed_text({"flow,0,0,1,10,q", "end"}));
    srv::FeedReader reader(in);
    EXPECT_TRUE(reader.next().has_value());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.clean_end());
  }
  {
    // EOF without the sentinel: producer went away. Not an error, but
    // not a clean end either — the server uses this to pick "drained".
    std::istringstream in(feed_text({"flow,0,0,1,10,q"}));
    srv::FeedReader reader(in);
    EXPECT_TRUE(reader.next().has_value());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.done());
    EXPECT_FALSE(reader.clean_end());
    // Safe to keep polling after the end.
    EXPECT_FALSE(reader.next().has_value());
  }
}

TEST(Feed, TornFinalLineIsAParseError) {
  // No trailing newline on the last record: a torn write, not a record.
  std::istringstream in(std::string(srv::kFeedMagic) +
                        "\nflow,0,0,1,10,q\nflow,1,2,3,10,b");
  srv::FeedReader reader(in);
  EXPECT_TRUE(reader.next().has_value());
  try {
    reader.next();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(Feed, ToleratesCrlfCommentsAndBlankLines) {
  std::istringstream in(
      std::string(srv::kFeedMagic) +
      "\r\n# a comment\r\n\r\n\nflow,0.5,2,3,4096,b,1\r\nend\r\n");
  srv::FeedReader reader(in);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->arrival.time.seconds, 0.5);
  EXPECT_EQ(rec->arrival.size.count, 4096);
  EXPECT_EQ(rec->tenant, 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.clean_end());
}

TEST(Feed, RejectsMalformedRecordsWithLineNumbers) {
  // Each bad body line sits at line 2 (after the header).
  const std::vector<std::string> bad = {
      "arrival,0,0,1,10,q",                  // wrong keyword
      "flow,0,0,1,10",                       // too few fields
      "flow,0,0,1,10,q,0,9",                 // too many fields
      "flow,abc,0,1,10,q",                   // non-numeric time
      "flow,1.5x,0,1,10,q",                  // trailing garbage in time
      "flow,1e999,0,1,10,q",                 // overflowing time
      "flow,nan,0,1,10,q",                   // non-finite time
      "flow,-1,0,1,10,q",                    // negative time
      "flow,0,0x,1,10,q",                    // trailing garbage in src
      "flow,0,-1,1,10,q",                    // negative port
      "flow,0,2,2,10,q",                     // src == dst
      "flow,0,0,1,0,q",                      // zero size
      "flow,0,0,1,-5,q",                     // negative size
      "flow,0,0,1,99999999999999999999,q",   // overflowing size
      "flow,0,0,1,10,x",                     // unknown class
      "flow,0,0,1,10,q,-1",                  // negative tenant
      "flow,0,0,1,10,q,4294967296",          // tenant past INT32_MAX
      "flow,0,0,1,10,q,",                    // trailing comma: empty tenant
  };
  for (const std::string& line : bad) {
    EXPECT_EQ(parse_error_line(feed_text({line, "end"})), 2u) << line;
  }
  // Time regressions are detected against the previous record (line 3).
  EXPECT_EQ(parse_error_line(feed_text(
                {"flow,1.0,0,1,10,q", "flow,0.5,0,1,10,q", "end"})),
            3u);
}

TEST(Feed, SteadyStateReadingDoesNotAllocate) {
  std::vector<srv::FeedRecord> records;
  for (int i = 0; i < 4000; ++i) {
    records.push_back(make_record(1e-4 * i + 1.0 / 3.0, i % 7, 7, 1 + i * 977,
                                  i % 3 == 0 ? stats::FlowClass::kQuery
                                             : stats::FlowClass::kBackground,
                                  i % 5));
  }
  std::ostringstream out;
  srv::write_feed(out, records);
  std::istringstream in(out.str());
  srv::FeedReader reader(in);
  // The first records size the reader's line buffer.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(reader.next().has_value());
  }
  perf::set_alloc_counting(true);
  const std::uint64_t before = perf::alloc_total();
  std::size_t read = 0;
  while (reader.next()) {
    ++read;
  }
  const std::uint64_t allocs = perf::alloc_total() - before;
  perf::set_alloc_counting(false);
  EXPECT_EQ(read, records.size() - 64);
  EXPECT_TRUE(reader.clean_end());
  EXPECT_EQ(allocs, 0u) << "over " << read << " records";
}

// --------------------------------------------------------------- health

/// Small watermarks and short (virtual) dwells so scripts stay readable:
/// enter at 1000 bytes / 100 flows, exit at 500 / 50, hysteresis 100 ms,
/// probe backoff 50 ms × 2 capped at 400 ms, decaying after 1 s.
srv::HealthConfig tight_health() {
  srv::HealthConfig config;
  config.shed_enter_backlog_bytes = 1000;
  config.shed_exit_backlog_bytes = 500;
  config.shed_enter_flows = 100;
  config.shed_exit_flows = 50;
  config.hysteresis_sec = 0.10;
  config.probe_initial_sec = 0.05;
  config.probe_factor = 2.0;
  config.probe_max_sec = 0.40;
  config.probe_decay_sec = 1.0;
  config.degraded_p99_ms = 5.0;
  return config;
}

srv::HealthSignals at(double t, std::int64_t backlog,
                      std::int64_t flows = 0, bool disrupt = false,
                      double p99_ms = -1.0) {
  srv::HealthSignals s;
  s.now_sec = t;
  s.backlog_bytes = backlog;
  s.active_flows = flows;
  s.in_disruption = disrupt;
  s.decision_p99_ms = p99_ms;
  return s;
}

TEST(Health, TableDrivenSheddingLifecycle) {
  struct Step {
    double t;
    std::int64_t backlog;
    HealthState expect;
  };
  const std::vector<Step> script = {
      {0.00, 0, HealthState::kHealthy},
      {0.05, 999, HealthState::kHealthy},    // just below enter
      {0.10, 1000, HealthState::kShedding},  // at the enter watermark
      {0.15, 600, HealthState::kShedding},   // below enter, above exit
      {0.20, 500, HealthState::kShedding},   // at exit: dwell starts
      {0.25, 400, HealthState::kShedding},   // 50 ms < hysteresis
      {0.29, 400, HealthState::kShedding},   // 90 ms < hysteresis
      {0.31, 400, HealthState::kHealthy},    // 110 ms >= hysteresis
      {0.40, 999, HealthState::kHealthy},    // below enter: no re-entry
  };
  srv::HealthMonitor mon(tight_health());
  for (const Step& s : script) {
    EXPECT_EQ(mon.update(at(s.t, s.backlog)), s.expect) << "t=" << s.t;
  }
  EXPECT_EQ(mon.shed_entries(), 1);
  ASSERT_EQ(mon.transitions().size(), 2u);
  EXPECT_EQ(mon.transitions()[0].to, HealthState::kShedding);
  EXPECT_EQ(mon.transitions()[0].reason, "backlog over enter watermark");
  EXPECT_EQ(mon.transitions()[1].to, HealthState::kHealthy);
}

TEST(Health, EntersOnFlowCountWatermarkToo) {
  srv::HealthMonitor mon(tight_health());
  EXPECT_EQ(mon.update(at(0.0, 0, 99)), HealthState::kHealthy);
  EXPECT_EQ(mon.update(at(0.1, 0, 100)), HealthState::kShedding);
  EXPECT_FALSE(mon.admitting());
  EXPECT_EQ(mon.transitions().back().reason,
            "active flows over enter watermark");
}

TEST(Health, ExitRequiresBothSignalsUnderTheirExitWatermarks) {
  srv::HealthMonitor mon(tight_health());
  mon.update(at(0.0, 2000, 0));
  // Backlog cleared, but the flow count alone holds shedding open.
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(mon.update(at(0.1 * i, 0, 60)), HealthState::kShedding);
  }
  // Both under exit: dwell starts, exits after the hysteresis.
  EXPECT_EQ(mon.update(at(1.1, 0, 50)), HealthState::kShedding);
  EXPECT_EQ(mon.update(at(1.25, 0, 50)), HealthState::kHealthy);
}

TEST(Health, HysteresisDwellRestartsOnASpike) {
  srv::HealthMonitor mon(tight_health());
  mon.update(at(0.00, 2000));
  EXPECT_EQ(mon.update(at(0.10, 400)), HealthState::kShedding);
  // Spike back above the exit watermark invalidates the dwell.
  EXPECT_EQ(mon.update(at(0.15, 600)), HealthState::kShedding);
  EXPECT_EQ(mon.update(at(0.20, 400)), HealthState::kShedding);
  // 0.25 - 0.10 = 150 ms would have sufficed without the reset; the
  // dwell restarted at 0.20, so shedding holds.
  EXPECT_EQ(mon.update(at(0.25, 400)), HealthState::kShedding);
  EXPECT_EQ(mon.update(at(0.31, 400)), HealthState::kHealthy);
  EXPECT_EQ(mon.shed_entries(), 1);
}

TEST(Health, ReProbeBackoffEscalatesGatesExitAndCaps) {
  srv::HealthMonitor mon(tight_health());
  EXPECT_DOUBLE_EQ(mon.probe_delay_sec(), 0.05);

  // Entry 1: first ever — probe delay stays at the initial value.
  mon.update(at(0.00, 2000));
  EXPECT_DOUBLE_EQ(mon.probe_delay_sec(), 0.05);
  mon.update(at(0.05, 400));
  EXPECT_EQ(mon.update(at(0.16, 400)), HealthState::kHealthy);

  // Entry 2, 40 ms after the exit (inside probe_decay): delay doubles.
  mon.update(at(0.20, 2000));
  EXPECT_DOUBLE_EQ(mon.probe_delay_sec(), 0.10);
  mon.update(at(0.21, 400));
  EXPECT_EQ(mon.update(at(0.32, 400)), HealthState::kHealthy);

  // Entry 3: doubles again — and now the probe delay (200 ms) outlasts
  // the hysteresis (100 ms), holding shedding even though the signals
  // have settled.
  mon.update(at(0.35, 2000));
  EXPECT_DOUBLE_EQ(mon.probe_delay_sec(), 0.20);
  mon.update(at(0.36, 400));
  EXPECT_EQ(mon.update(at(0.47, 400)), HealthState::kShedding);  // settled,
  EXPECT_EQ(mon.update(at(0.56, 400)), HealthState::kHealthy);   // dwelled.

  // Entry 4 hits the cap...
  mon.update(at(0.60, 2000));
  EXPECT_DOUBLE_EQ(mon.probe_delay_sec(), 0.40);
  mon.update(at(0.61, 400));
  EXPECT_EQ(mon.update(at(1.01, 400)), HealthState::kHealthy);

  // ...and entry 5 stays capped.
  mon.update(at(1.05, 2000));
  EXPECT_DOUBLE_EQ(mon.probe_delay_sec(), 0.40);
  EXPECT_EQ(mon.shed_entries(), 5);
}

TEST(Health, BackoffResetsAfterAQuietStretch) {
  srv::HealthMonitor mon(tight_health());
  mon.update(at(0.00, 2000));
  mon.update(at(0.05, 400));
  mon.update(at(0.16, 400));  // exit 1
  mon.update(at(0.20, 2000));
  EXPECT_DOUBLE_EQ(mon.probe_delay_sec(), 0.10);  // escalated
  mon.update(at(0.25, 400));
  mon.update(at(0.36, 400));  // exit 2
  // Re-entry well past probe_decay_sec of the last exit: clean slate.
  mon.update(at(2.00, 2000));
  EXPECT_DOUBLE_EQ(mon.probe_delay_sec(), 0.05);
}

TEST(Health, DegradedIsAdvisoryOnly) {
  srv::HealthMonitor mon(tight_health());
  EXPECT_EQ(mon.update(at(0.00, 0, 0, /*disrupt=*/true)),
            HealthState::kDegraded);
  EXPECT_TRUE(mon.admitting());  // degraded never gates admission
  EXPECT_EQ(mon.transitions().back().reason, "fault disruption window");
  // The cause must stay clear for a full hysteresis before recovery.
  EXPECT_EQ(mon.update(at(0.10, 0)), HealthState::kDegraded);
  EXPECT_EQ(mon.update(at(0.15, 0)), HealthState::kDegraded);
  EXPECT_EQ(mon.update(at(0.21, 0)), HealthState::kHealthy);
  // Wall-clock p99 over budget raises it as well.
  EXPECT_EQ(mon.update(at(0.30, 0, 0, false, /*p99_ms=*/10.0)),
            HealthState::kDegraded);
  EXPECT_TRUE(mon.admitting());
  EXPECT_EQ(mon.transitions().back().reason, "decision p99 over budget");
  // Degraded escalates straight to shedding on a watermark breach.
  EXPECT_EQ(mon.update(at(0.40, 2000)), HealthState::kShedding);
  EXPECT_FALSE(mon.admitting());
}

TEST(Health, DrainingIsTerminal) {
  srv::HealthMonitor mon(tight_health());
  mon.begin_drain(1.0);
  EXPECT_EQ(mon.state(), HealthState::kDraining);
  EXPECT_FALSE(mon.admitting());
  EXPECT_EQ(mon.update(at(2.0, 0)), HealthState::kDraining);
  EXPECT_EQ(mon.update(at(3.0, 1'000'000)), HealthState::kDraining);
  mon.begin_drain(4.0);  // idempotent: no duplicate transition
  EXPECT_EQ(mon.transitions().size(), 1u);
}

TEST(Health, NoFlappingUnderFastOscillation) {
  // The load oscillates across both watermarks every 20 ms — five times
  // faster than the hysteresis. One entry, zero exits, no flapping.
  srv::HealthMonitor mon(tight_health());
  for (int i = 0; i < 100; ++i) {
    mon.update(at(i * 0.02, i % 2 == 0 ? 2000 : 400));
  }
  EXPECT_EQ(mon.state(), HealthState::kShedding);
  EXPECT_EQ(mon.shed_entries(), 1);
  EXPECT_EQ(mon.transitions().size(), 1u);
}

TEST(Health, SnapshotRestoreContinuesInLockstep) {
  srv::HealthMonitor a(tight_health());
  // Prefix: one full shed cycle plus a fresh re-entry (live backoff).
  a.update(at(0.00, 2000));
  a.update(at(0.05, 400));
  a.update(at(0.16, 400));
  a.update(at(0.20, 2000));

  srv::HealthMonitor b(tight_health());
  b.restore(a.snapshot());
  EXPECT_EQ(b.state(), a.state());
  EXPECT_DOUBLE_EQ(b.probe_delay_sec(), a.probe_delay_sec());
  EXPECT_EQ(b.shed_entries(), a.shed_entries());
  ASSERT_EQ(b.transitions().size(), a.transitions().size());

  // Identical suffix must produce identical behavior (including the
  // backoff bookkeeping that only restore() can carry across).
  const std::vector<srv::HealthSignals> suffix = {
      at(0.25, 400), at(0.36, 400),  // exit 2
      at(0.40, 2000),                // entry 3: escalate again
      at(0.41, 400), at(0.62, 400),  // exit 3 (gated by the 0.2 s probe)
      at(2.00, 2000),                // entry 4: decayed, reset
  };
  for (const srv::HealthSignals& s : suffix) {
    EXPECT_EQ(a.update(s), b.update(s)) << "t=" << s.now_sec;
    EXPECT_DOUBLE_EQ(a.probe_delay_sec(), b.probe_delay_sec());
  }
  ASSERT_EQ(a.transitions().size(), b.transitions().size());
  for (std::size_t i = 0; i < a.transitions().size(); ++i) {
    EXPECT_EQ(a.transitions()[i].time_sec, b.transitions()[i].time_sec);
    EXPECT_EQ(a.transitions()[i].to, b.transitions()[i].to);
    EXPECT_EQ(a.transitions()[i].reason, b.transitions()[i].reason);
  }
}

// ------------------------------------------------------------------ SLO

TEST(Slo, CountsDeadlineMissesAgainstTheBudget) {
  srv::SloTracker slo;
  for (int i = 1; i <= 100; ++i) {
    slo.record_decision(static_cast<std::uint64_t>(i) * 1000, 50'000);
  }
  EXPECT_EQ(slo.decision_ns().count(), 100u);
  EXPECT_EQ(slo.deadline_misses(), 50);  // 51..100 us over the 50 us budget
  EXPECT_GT(slo.decision_ns().quantile(0.99), 0.0);
  // Budget 0 disables the deadline entirely.
  slo.record_decision(1'000'000'000, 0);
  EXPECT_EQ(slo.deadline_misses(), 50);
}

TEST(Slo, SnapshotCarriesDeterministicCountersOnly) {
  srv::SloTracker a;
  a.record_admit(0);
  a.record_admit(1);
  a.record_admit(1);
  a.record_shed(2, 3.5);
  a.record_queue_depth(7);
  a.record_queue_depth(3);
  a.record_decision(1000, 500);  // wall clock: must NOT survive

  srv::SloTracker b;
  b.restore(a.snapshot());
  EXPECT_EQ(b.admitted(), 3);
  EXPECT_EQ(b.shed(), 1);
  EXPECT_EQ(b.queue_depth_peak(), 7);
  EXPECT_DOUBLE_EQ(b.last_shed_sec(), 3.5);
  EXPECT_EQ(b.admitted_by_tenant().at(1), 2);
  EXPECT_EQ(b.shed_by_tenant().at(2), 1);
  // The decision histogram measures *this host, this run*: it restarts
  // empty on resume rather than stitching two machines into one p99.
  EXPECT_EQ(b.decision_ns().count(), 0u);
  EXPECT_EQ(b.deadline_misses(), 0);
}

TEST(Slo, JsonReportIsAlwaysACompleteDocument) {
  srv::SloTracker slo;
  srv::HealthMonitor health(tight_health());
  srv::SloRunTotals totals;
  std::ostringstream out;
  srv::write_slo_json(out, slo, health, totals);
  const std::string text = out.str();
  // Even a zero-activity run emits the full structure.
  for (const char* key :
       {"basrpt-slo-v1", "\"decisions\"", "\"p99_ms\"", "\"p999_ms\"",
        "\"admission\"", "\"shed_rate\"", "\"queue\"", "\"flows\"",
        "\"health\"", "\"transitions\"", "\"deadline_misses\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

// ------------------------------------------------- server + checkpoints

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("basrpt_srv_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// A ~1.5 s three-segment ramp (0.6 → 1.3 → 0.5) on a single 4-host
/// rack at 50 Mbit/s: small enough for unit tests, overloaded enough in
/// the middle to force real shedding.
srv::LoadGenConfig tiny_gen() {
  srv::LoadGenConfig gen;
  gen.segments = {{0.5, 0.6, 1.0}, {0.5, 1.3, 4.0}, {0.5, 0.5, 1.0}};
  gen.racks = 1;
  gen.hosts_per_rack = 4;
  gen.host_link = mbps(50.0);
  gen.tenants = 2;
  gen.seed = 7;
  return gen;
}

srv::ServerConfig tiny_server(const srv::LoadGenConfig& gen) {
  srv::ServerConfig config;
  config.sim.fabric = topo::small_fabric(gen.racks, gen.hosts_per_rack);
  config.sim.fabric.host_link = gen.host_link;
  config.sim.horizon = seconds(10.0);
  config.quantum_sec = 0.005;
  config.decision_budget_ms = 1.0;
  // Watermarks scaled to the tiny fabric so the overload segment
  // reliably crosses them.
  config.health.shed_enter_backlog_bytes = 96 << 10;
  config.health.shed_exit_backlog_bytes = 48 << 10;
  config.health.hysteresis_sec = 0.02;
  config.health.probe_initial_sec = 0.01;
  return config;
}

std::string rendered_feed(const srv::LoadGenConfig& gen) {
  std::ostringstream out;
  srv::write_feed(out, srv::generate_feed(gen));
  return out.str();
}

TEST(Server, ServesAFeedAndAccountsEveryRecord) {
  const srv::LoadGenConfig gen = tiny_gen();
  const std::string text = rendered_feed(gen);
  std::istringstream in(text);
  srv::FeedReader feed(in);
  srv::Server server(tiny_server(gen));
  const srv::ServeResult result = server.serve(feed);

  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.totals.status, "completed");
  EXPECT_GT(result.totals.records_consumed, 0);
  // Every consumed record was either admitted or shed — nothing lost.
  EXPECT_EQ(result.totals.records_consumed,
            server.slo().admitted() + server.slo().shed());
  // Every admitted record became a simulator arrival with a decision.
  EXPECT_EQ(result.totals.flows_arrived, server.slo().admitted());
  EXPECT_EQ(server.slo().decision_ns().count(),
            static_cast<std::uint64_t>(server.slo().admitted()));
  // The overload segment really shed.
  EXPECT_GT(server.slo().shed(), 0);
  EXPECT_GE(server.health().shed_entries(), 1);
  EXPECT_GT(server.slo().last_shed_sec(), 0.0);
  EXPECT_LE(result.totals.flows_completed, result.totals.flows_arrived);
  EXPECT_GT(result.totals.delivered_bytes, 0);
  // Both tenants saw sheds (round-robin dealing).
  EXPECT_EQ(server.slo().shed_by_tenant().size(), 2u);
}

TEST(Server, CheckpointCodecRoundTripsTheLiveState) {
  const srv::LoadGenConfig gen = tiny_gen();
  std::istringstream in(rendered_feed(gen));
  srv::FeedReader feed(in);
  srv::Server server(tiny_server(gen));
  (void)server.serve(feed);

  const std::string once = srv::encode_server_ckpt(server.capture());
  std::istringstream snap_in(once);
  const srv::ServerCkpt decoded =
      srv::decode_server_ckpt(ckpt::Snapshot::parse(snap_in));
  // encode(decode(x)) == x: the codec loses nothing, bit for bit.
  EXPECT_EQ(srv::encode_server_ckpt(decoded), once);

  // A truncated snapshot never parses into a half-restored server.
  std::istringstream cut(once.substr(0, once.size() / 2));
  EXPECT_THROW(
      { srv::decode_server_ckpt(ckpt::Snapshot::parse(cut)); },
      ConfigError);
}

TEST(Server, CheckpointCountsPastThePayloadAreParseErrors) {
  // A valid-CRC section whose row count no section could hold must fail
  // as a ParseError before anything reserves room for it, not escape as
  // bad_alloc (a huge count) or length_error (a blank-led "-5" that a
  // sign-tolerant reader took for 2^64 - 5).
  const srv::LoadGenConfig gen = tiny_gen();
  std::istringstream feed_in(rendered_feed(gen));
  srv::FeedReader feed(feed_in);
  srv::Server server(tiny_server(gen));
  (void)server.serve(feed);
  std::istringstream snap_in(srv::encode_server_ckpt(server.capture()));
  const ckpt::Snapshot pristine = ckpt::Snapshot::parse(snap_in);

  const std::vector<std::pair<std::string, std::string>> counts = {
      {"lifecycle", "prev_selected"},
      {"flows", "count"},
      {"scheduler", "words"},
      {"health", "transitions"},
      {"slo", "admitted_by_tenant"},
  };
  for (const auto& [section_name, key] : counts) {
    for (const char* value : {" 1000000000000", "  -5"}) {
      ckpt::SnapshotWriter writer;
      bool replaced = false;
      for (const ckpt::Section& section : pristine.sections()) {
        auto& out = writer.section(section.name);
        for (const std::string& line : section.lines) {
          if (section.name == section_name && line.rfind(key + " ", 0) == 0) {
            out.line(key + value);
            replaced = true;
          } else {
            out.line(line);
          }
        }
      }
      ASSERT_TRUE(replaced) << section_name << "/" << key;
      std::istringstream in(writer.str());
      const ckpt::Snapshot mutated = ckpt::Snapshot::parse(in);
      EXPECT_THROW((void)srv::decode_server_ckpt(mutated), ParseError)
          << section_name << "/" << key << value;
    }
  }
}

TEST(Server, KillAndResumeMatchesTheUninterruptedRun) {
  const srv::LoadGenConfig gen = tiny_gen();
  const std::string text = rendered_feed(gen);
  srv::ServerConfig config = tiny_server(gen);
  // The decision-p99 advisory reads the wall clock, so on a loaded host
  // it could raise kDegraded in one run and not the other. Out of reach,
  // every transition compared below is a function of the feed alone.
  config.health.degraded_p99_ms = std::numeric_limits<double>::infinity();

  // Reference: one uninterrupted pass over the feed.
  std::istringstream ref_in(text);
  srv::FeedReader ref_feed(ref_in);
  srv::Server reference(config);
  const srv::ServeResult ref = reference.serve(ref_feed);
  ASSERT_EQ(ref.exit_code, 0);

  // Checkpointed pass, keeping every rotation step.
  TempDir tmp;
  config.ckpt_dir = tmp.path.string();
  config.run_id = "unit";
  config.ckpt_keep_last = 64;
  config.ckpt_every_sec = 0.25;
  {
    std::istringstream in(text);
    srv::FeedReader feed(in);
    srv::Server first(config);
    const srv::ServeResult r = first.serve(feed);
    ASSERT_EQ(r.exit_code, 0);
    ASSERT_FALSE(r.last_checkpoint.empty());
  }

  // "SIGKILL" at the earliest surviving checkpoint: everything the
  // process did after that instant is lost; --resume replays it.
  std::vector<std::string> ckpts;
  for (const auto& entry : fs::directory_iterator(tmp.path)) {
    ckpts.push_back(entry.path().string());
  }
  ASSERT_GE(ckpts.size(), 3u);  // periodic checkpoints actually rotated
  std::sort(ckpts.begin(), ckpts.end(),
            [](const std::string& a, const std::string& b) {
              return ckpt::CheckpointManager::sequence_of(a) <
                     ckpt::CheckpointManager::sequence_of(b);
            });

  std::istringstream in(text);
  srv::FeedReader feed(in);
  srv::Server resumed(config, srv::read_server_ckpt_file(ckpts.front()));
  const srv::ServeResult res = resumed.serve(feed);

  EXPECT_EQ(res.exit_code, 0);
  EXPECT_TRUE(res.totals.resumed);
  // Deterministic counters match the uninterrupted run exactly.
  EXPECT_EQ(res.totals.records_consumed, ref.totals.records_consumed);
  EXPECT_EQ(resumed.slo().admitted(), reference.slo().admitted());
  EXPECT_EQ(resumed.slo().shed(), reference.slo().shed());
  EXPECT_EQ(resumed.slo().admitted_by_tenant(),
            reference.slo().admitted_by_tenant());
  EXPECT_EQ(resumed.slo().shed_by_tenant(), reference.slo().shed_by_tenant());
  EXPECT_EQ(resumed.slo().last_shed_sec(), reference.slo().last_shed_sec());
  EXPECT_EQ(res.totals.flows_arrived, ref.totals.flows_arrived);
  EXPECT_EQ(res.totals.flows_completed, ref.totals.flows_completed);
  EXPECT_EQ(res.totals.delivered_bytes, ref.totals.delivered_bytes);
  EXPECT_EQ(res.totals.backlog_bytes_at_end, ref.totals.backlog_bytes_at_end);
  EXPECT_EQ(res.totals.scheduler_invocations,
            ref.totals.scheduler_invocations);
  // Including the full health history (restored + replayed suffix).
  EXPECT_EQ(resumed.health().shed_entries(), reference.health().shed_entries());
  ASSERT_EQ(resumed.health().transitions().size(),
            reference.health().transitions().size());
  for (std::size_t i = 0; i < reference.health().transitions().size(); ++i) {
    EXPECT_EQ(resumed.health().transitions()[i].time_sec,
              reference.health().transitions()[i].time_sec);
    EXPECT_EQ(resumed.health().transitions()[i].to,
              reference.health().transitions()[i].to);
  }
}

TEST(Server, ResumeRejectsAFeedShorterThanTheCursor) {
  const srv::LoadGenConfig gen = tiny_gen();
  std::istringstream in(rendered_feed(gen));
  srv::FeedReader feed(in);
  srv::ServerConfig config = tiny_server(gen);
  srv::Server server(config);
  (void)server.serve(feed);
  const srv::ServerCkpt state = server.capture();
  ASSERT_GT(state.feed_records_consumed, 0u);

  // Resuming that checkpoint against a near-empty feed is a config
  // error (wrong feed for this checkpoint), not silent misalignment.
  srv::Server resumed(config, state);
  std::istringstream tiny(feed_text({"end"}));
  srv::FeedReader tiny_feed(tiny);
  EXPECT_THROW(resumed.serve(tiny_feed), ConfigError);
}

TEST(Server, ProgrammaticDrainStopsBeforeAdmittingAnything) {
  struct DrainScope {
    DrainScope() { request_drain(0); }
    ~DrainScope() { clear_drain(); }
  } scope;
  const srv::LoadGenConfig gen = tiny_gen();
  std::istringstream in(rendered_feed(gen));
  srv::FeedReader feed(in);
  srv::Server server(tiny_server(gen));
  const srv::ServeResult result = server.serve(feed);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.totals.status, "drained");
  EXPECT_EQ(result.totals.records_consumed, 0);
  EXPECT_EQ(server.health().state(), HealthState::kDraining);
}

TEST(Server, RejectsFeedRecordsPastTheHorizon) {
  const srv::LoadGenConfig gen = tiny_gen();
  srv::ServerConfig config = tiny_server(gen);
  config.sim.horizon = seconds(0.5);
  std::istringstream in(feed_text({"flow,1.0,0,1,1000,q", "end"}));
  srv::FeedReader feed(in);
  srv::Server server(config);
  EXPECT_THROW(server.serve(feed), ConfigError);
}

TEST(LoadGen, SegmentsAreIndependentAndTenantsRoundRobin) {
  srv::LoadGenConfig gen = tiny_gen();
  const std::vector<srv::FeedRecord> base = srv::generate_feed(gen);
  ASSERT_GT(base.size(), 10u);
  EXPECT_DOUBLE_EQ(srv::loadgen_duration(gen), 1.5);
  // Time-sorted, round-robin tenancy in arrival order.
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(base[i].arrival.time.seconds,
                base[i - 1].arrival.time.seconds);
    }
    EXPECT_EQ(base[i].tenant,
              static_cast<std::int32_t>(i % static_cast<std::size_t>(
                                                gen.tenants)));
  }
  // Editing the middle segment leaves the first segment bit-identical.
  srv::LoadGenConfig edited = gen;
  edited.segments[1].load = 0.9;
  const std::vector<srv::FeedRecord> other = srv::generate_feed(edited);
  std::size_t i = 0;
  for (; i < std::min(base.size(), other.size()); ++i) {
    if (base[i].arrival.time.seconds >= 0.5) {
      break;  // end of segment 0
    }
    EXPECT_EQ(base[i].arrival.time.seconds, other[i].arrival.time.seconds);
    EXPECT_EQ(base[i].arrival.size.count, other[i].arrival.size.count);
    EXPECT_EQ(base[i].arrival.src, other[i].arrival.src);
    EXPECT_EQ(base[i].arrival.dst, other[i].arrival.dst);
  }
  EXPECT_GT(i, 0u);
}

// ----------------------------------------------------------------- wire

TEST(Wire, FramesRoundTrip) {
  std::string hello_line = srv::encode_hello(42);
  hello_line.pop_back();  // strip '\n'
  const srv::DecisionMsg hello = srv::parse_decision_line(hello_line, 2);
  EXPECT_EQ(hello.kind, srv::DecisionMsg::Kind::kHello);
  EXPECT_EQ(hello.cursor, 42u);

  srv::Decision d;
  d.seq = 7;
  d.time_s = 1.25e-4;
  d.admitted = false;
  d.tenant = 3;
  std::string line = srv::encode_decision(d);
  line.pop_back();  // strip '\n'
  const srv::DecisionMsg msg = srv::parse_decision_line(line, 3);
  EXPECT_EQ(msg.kind, srv::DecisionMsg::Kind::kDecision);
  EXPECT_EQ(msg.decision.seq, 7u);
  EXPECT_EQ(msg.decision.time_s, 1.25e-4);  // %.17g survives exactly
  EXPECT_FALSE(msg.decision.admitted);
  EXPECT_EQ(msg.decision.tenant, 3);

  std::string done = srv::encode_complete(99, "drained");
  done.pop_back();
  const srv::DecisionMsg fin = srv::parse_decision_line(done, 4);
  EXPECT_EQ(fin.kind, srv::DecisionMsg::Kind::kComplete);
  EXPECT_EQ(fin.seq, 99u);
  EXPECT_EQ(fin.status, "drained");

  // Error reasons are free text: embedded commas must survive.
  std::string err = srv::encode_error(12, 345, "bad field: 'a,b,c'");
  err.pop_back();
  const srv::DecisionMsg oops = srv::parse_decision_line(err, 5);
  EXPECT_EQ(oops.kind, srv::DecisionMsg::Kind::kError);
  EXPECT_EQ(oops.line, 12u);
  EXPECT_EQ(oops.offset, 345u);
  EXPECT_EQ(oops.reason, "bad field: 'a,b,c'");
}

TEST(Wire, RejectsMalformedFrames) {
  const std::vector<std::string> bad = {
      "",                                  // empty verb
      "verdict,1",                         // unknown verb
      "hello",                             // missing cursor
      "hello,abc",                         // non-numeric cursor
      "hello,99999999999999999999999999",  // overflowing cursor
      "decision,1,0.5,a",                  // too few fields
      "decision,-1,0.5,a,0",               // negative seq
      "decision,1,oops,a,0",               // non-numeric time
      "decision,1,0.5,x,0",                // unknown verdict
      "decision,1,0.5,a,4294967296",       // tenant past INT32_MAX
      "complete,1,",                       // empty status
      "error,1,2",                         // missing reason field
  };
  for (const std::string& line : bad) {
    EXPECT_THROW((void)srv::parse_decision_line(line, 9), ParseError) << line;
  }
}

// ----------------------------------------------------- connection machine

/// Drains every pending outbound byte at `now`, returning the stream.
std::string drain_output(srv::Connection& conn, double now) {
  std::string all;
  while (conn.has_output()) {
    const std::string_view chunk = conn.pending_output();
    all.append(chunk.data(), chunk.size());
    conn.consume_output(chunk.size(), now);
  }
  return all;
}

srv::ConnectionConfig tight_conn() {
  srv::ConnectionConfig config;
  config.read_timeout_sec = 5.0;
  config.write_timeout_sec = 2.0;
  config.write_stall_sec = 0.5;
  config.send_buffer_cap = 256;
  config.max_line_bytes = 64;
  return config;
}

srv::Decision decision_at(std::uint64_t seq, double t = 0.0,
                          bool admitted = true) {
  srv::Decision d;
  d.seq = seq;
  d.time_s = t;
  d.admitted = admitted;
  d.tenant = 0;
  return d;
}

TEST(Connection, HelloAdvertisesTheCursorImmediately) {
  srv::Connection conn(tight_conn(), 1234, 0.0);
  EXPECT_EQ(drain_output(conn, 0.0),
            std::string(srv::kDecisionsMagic) + "\nhello,1234\n");
  EXPECT_FALSE(conn.want_close());
}

TEST(Connection, ParsesRecordsAcrossArbitrarySplits) {
  const std::string text = feed_text(
      {"flow,0.5,2,3,4096,b,1", "# comment", "flow,0.75,1,0,10,q", "end"});
  // Byte-at-a-time is the worst split pattern a socket can produce.
  srv::Connection conn(tight_conn(), 0, 0.0);
  for (const char c : text) {
    conn.on_bytes(&c, 1, 0.0);
  }
  const auto first = conn.take_record();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->arrival.size.count, 4096);
  EXPECT_EQ(first->tenant, 1);
  const auto second = conn.take_record();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->arrival.time.seconds, 0.75);
  EXPECT_FALSE(conn.take_record().has_value());
  EXPECT_TRUE(conn.saw_end());
  EXPECT_TRUE(conn.reading_paused());  // feed complete: stop reading
  EXPECT_FALSE(conn.fenced());
}

TEST(Connection, PoisonFrameFencesWithLineAndByteOffset) {
  const std::string header = std::string(srv::kFeedMagic) + "\n";
  const std::string good = "flow,0.5,2,3,4096,b\n";
  const std::string bad = "flow,0.5,2,3,4096\n";  // too few fields
  srv::Connection conn(tight_conn(), 0, 0.0);
  conn.on_bytes(header.data(), header.size(), 0.0);
  conn.on_bytes(good.data(), good.size(), 0.0);
  ASSERT_TRUE(conn.take_record().has_value());
  conn.on_bytes(bad.data(), bad.size(), 0.0);

  EXPECT_TRUE(conn.fenced());
  EXPECT_TRUE(conn.reading_paused());
  EXPECT_FALSE(conn.take_record().has_value());  // nothing past the poison
  // Trailing bytes after the fence are ignored, not parsed.
  conn.on_bytes(good.data(), good.size(), 0.0);
  EXPECT_FALSE(conn.take_record().has_value());

  // The error frame carries the 1-based line and the byte offset of the
  // poison line's first byte.
  const std::string out = drain_output(conn, 0.0);
  const std::size_t err_at = out.find("error,");
  ASSERT_NE(err_at, std::string::npos);
  std::string err_line = out.substr(err_at, out.find('\n', err_at) - err_at);
  const srv::DecisionMsg msg = srv::parse_decision_line(err_line, 1);
  EXPECT_EQ(msg.line, 3u);
  EXPECT_EQ(msg.offset, header.size() + good.size());
  EXPECT_NE(msg.reason.find("fields"), std::string::npos);
  // Once the error frame is flushed, the connection asks to close.
  EXPECT_TRUE(conn.want_close());
  EXPECT_NE(conn.close_reason().find("fenced"), std::string::npos);
}

TEST(Connection, OversizedFrameWithoutNewlineIsPoison) {
  srv::Connection conn(tight_conn(), 0, 0.0);
  const std::string header = std::string(srv::kFeedMagic) + "\n";
  conn.on_bytes(header.data(), header.size(), 0.0);
  const std::string runaway(100, 'x');  // max_line_bytes is 64
  conn.on_bytes(runaway.data(), runaway.size(), 0.0);
  EXPECT_TRUE(conn.fenced());
  EXPECT_NE(drain_output(conn, 0.0).find("error,2,"), std::string::npos);
}

TEST(Connection, TableDrivenTimeoutsWithAFakeClock) {
  enum class Op { kBytes, kDrain, kTick };
  struct Step {
    double t;
    Op op;
    bool want_close;
    const char* reason;
  };
  const std::string header = std::string(srv::kFeedMagic) + "\n";

  {
    // Silence while input is still expected → read timeout (5 s).
    const std::vector<Step> script = {
        {0.0, Op::kDrain, false, ""},
        {1.0, Op::kBytes, false, ""},   // activity resets the clock
        {5.9, Op::kTick, false, ""},    // 4.9 s since the last byte
        {6.1, Op::kTick, true, "read timeout"},
    };
    srv::Connection conn(tight_conn(), 0, 0.0);
    for (const Step& s : script) {
      switch (s.op) {
        case Op::kBytes:
          conn.on_bytes(header.data(), header.size(), s.t);
          break;
        case Op::kDrain:
          (void)drain_output(conn, s.t);
          break;
        case Op::kTick:
          conn.tick(s.t);
          break;
      }
      EXPECT_EQ(conn.want_close(), s.want_close) << "t=" << s.t;
      if (s.want_close) {
        EXPECT_EQ(conn.close_reason(), s.reason);
      }
    }
  }
  {
    // Pending output with zero write progress → write timeout (2 s).
    srv::Connection conn(tight_conn(), 0, 0.0);
    (void)drain_output(conn, 1.0);  // hello flushed fine
    // Keep the read clock fresh so only the write path can trip.
    conn.on_bytes(header.data(), header.size(), 4.0);
    conn.push_decision(decision_at(1), 4.0);  // queued at 4.0 s
    conn.tick(5.9);                           // 1.9 s stuck: still fine
    EXPECT_FALSE(conn.want_close());
    conn.tick(6.1);                           // 2.1 s stuck
    EXPECT_TRUE(conn.want_close());
    EXPECT_EQ(conn.close_reason(), "write timeout");
  }
}

TEST(Connection, SlowConsumerBackpressuresThenShedsDecisionsOnly) {
  srv::Connection conn(tight_conn(), 0, 0.0);  // cap 256 B, stall 0.5 s
  const std::string header = std::string(srv::kFeedMagic) + "\n";
  conn.on_bytes(header.data(), header.size(), 0.0);
  EXPECT_FALSE(conn.reading_paused());

  // Nobody drains: ~30 B per decision, 20 of them blow past the cap.
  for (int i = 1; i <= 20; ++i) {
    conn.push_decision(decision_at(static_cast<std::uint64_t>(i)), 0.0);
  }
  EXPECT_TRUE(conn.over_cap());
  EXPECT_TRUE(conn.reading_paused());  // backpressure first
  EXPECT_EQ(conn.shed_frames(), 0);

  conn.tick(0.0);  // latches the over-cap stall timer
  conn.tick(0.4);  // under the stall threshold: still only backpressure
  EXPECT_EQ(conn.shed_frames(), 0);
  conn.tick(0.6);  // 0.6 s over cap: shed oldest sheddable frames
  EXPECT_GT(conn.shed_frames(), 0);
  EXPECT_FALSE(conn.over_cap());

  // The completion frame must survive any amount of shedding.
  conn.push_complete(20, "completed", 0.6);
  for (int i = 21; i <= 40; ++i) {
    conn.push_decision(decision_at(static_cast<std::uint64_t>(i)), 0.6);
  }
  conn.tick(1.2);  // second stall window: sheds again
  const std::string out = drain_output(conn, 1.2);
  EXPECT_EQ(out.find("hello,0"), std::string(srv::kDecisionsMagic).size() + 1);
  EXPECT_NE(out.find("complete,20,completed"), std::string::npos);
  // Decisions after push_complete are dropped (stream is finished).
  EXPECT_EQ(out.find("decision,21,"), std::string::npos);
}

TEST(Connection, ShedNeverSplitsAPartiallyWrittenFrame) {
  srv::Connection conn(tight_conn(), 0, 0.0);
  (void)drain_output(conn, 0.0);  // header + hello out of the way
  for (int i = 1; i <= 20; ++i) {
    conn.push_decision(decision_at(static_cast<std::uint64_t>(i)), 0.0);
  }
  // 5 bytes of decision #1 are on the wire: it must not be shed.
  const std::string_view first = conn.pending_output();
  const std::string rest(first.substr(5));
  conn.consume_output(5, 0.0);
  conn.tick(0.1);  // latch over-cap
  conn.tick(0.7);  // stall: shed
  ASSERT_GT(conn.shed_frames(), 0);
  const std::string out = drain_output(conn, 0.7);
  // The wire stream continues with the same bytes the frame had: no torn
  // or interleaved line.
  EXPECT_EQ(out.substr(0, rest.size()), rest);
}

TEST(Connection, PartialWriteResumesMidFrame) {
  srv::Connection conn(tight_conn(), 5, 0.0);
  conn.push_decision(decision_at(6, 0.5), 0.0);
  conn.push_complete(6, "completed", 0.0);
  const std::string expect = std::string(srv::kDecisionsMagic) +
                             "\nhello,5\n" +
                             srv::encode_decision(decision_at(6, 0.5)) +
                             srv::encode_complete(6, "completed");
  // Consume in 3-byte nibbles: pending_output must always continue at
  // the exact byte the previous write stopped at.
  std::string got;
  while (conn.has_output()) {
    const std::string_view chunk = conn.pending_output();
    const std::size_t n = std::min<std::size_t>(3, chunk.size());
    got.append(chunk.data(), n);
    conn.consume_output(n, 0.0);
  }
  EXPECT_EQ(got, expect);
  EXPECT_TRUE(conn.complete_flushed());
  EXPECT_TRUE(conn.want_close());  // final frame delivered
}

TEST(Connection, PeerEofRequestsCloseButKeepsParsedRecords) {
  const std::string text = feed_text({"flow,0.5,2,3,4096,b"});
  srv::Connection conn(tight_conn(), 0, 0.0);
  conn.on_bytes(text.data(), text.size(), 0.0);
  conn.on_peer_eof();
  EXPECT_TRUE(conn.want_close());
  EXPECT_EQ(conn.close_reason(), "peer closed");
  // Records parsed before the EOF still drain into the session.
  EXPECT_TRUE(conn.take_record().has_value());
}

// ------------------------------------------------- socket transport e2e

std::string socket_path(const TempDir& tmp, const char* name) {
  fs::create_directories(tmp.path);
  return (tmp.path / name).string();
}

struct ClientRun {
  srv::ClientResult result;
  std::exception_ptr error;
};

/// The message of a captured exception.
std::string what(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Runs srv::Client over `records` on a background thread.
std::thread drive_client(const srv::ClientConfig& config,
                         const std::vector<srv::FeedRecord>& records,
                         ClientRun* out) {
  return std::thread([config, &records, out] {
    try {
      srv::Client client(config);
      out->result = client.run(records);
    } catch (...) {
      out->error = std::current_exception();
    }
  });
}

TEST(Transport, UdsRoundTripMatchesTheInProcessRun) {
  const srv::LoadGenConfig gen = tiny_gen();
  const std::vector<srv::FeedRecord> records = srv::generate_feed(gen);

  // Reference: the plain istream path.
  std::istringstream ref_in(rendered_feed(gen));
  srv::FeedReader ref_feed(ref_in);
  srv::Server reference(tiny_server(gen));
  const srv::ServeResult ref = reference.serve(ref_feed);
  ASSERT_EQ(ref.totals.status, "completed");

  TempDir tmp;
  srv::TransportConfig tcfg;
  tcfg.endpoint = parse_endpoint("uds:" + socket_path(tmp, "serve.sock"));
  srv::SocketTransport transport(tcfg);

  srv::ClientConfig ccfg;
  ccfg.endpoint = tcfg.endpoint;
  ClientRun run;
  std::thread producer = drive_client(ccfg, records, &run);
  srv::Server server(tiny_server(gen));
  const srv::ServeResult res = server.serve(transport);
  producer.join();
  ASSERT_FALSE(run.error) << "client threw: " << what(run.error);

  // The socket adds framing and a second process's worth of timing; the
  // deterministic counters must not notice.
  EXPECT_EQ(res.totals.status, "completed");
  EXPECT_EQ(res.totals.records_consumed, ref.totals.records_consumed);
  EXPECT_EQ(server.slo().admitted(), reference.slo().admitted());
  EXPECT_EQ(server.slo().shed(), reference.slo().shed());
  EXPECT_EQ(res.totals.delivered_bytes, ref.totals.delivered_bytes);
  EXPECT_EQ(res.totals.flows_completed, ref.totals.flows_completed);
  EXPECT_EQ(transport.cursor(), static_cast<std::uint64_t>(records.size()));

  // And the producer observed the same run through the decisions stream.
  EXPECT_EQ(run.result.status, "completed");
  EXPECT_EQ(run.result.decisions, static_cast<std::uint64_t>(records.size()));
  EXPECT_EQ(run.result.admitted, reference.slo().admitted());
  EXPECT_EQ(run.result.shed, reference.slo().shed());
  EXPECT_EQ(run.result.reconnects, 0);
  EXPECT_EQ(run.result.duplicates, 0u);
}

TEST(Transport, ChaosLinkDifferentialConvergesBitIdentically) {
  const srv::LoadGenConfig gen = tiny_gen();
  const std::vector<srv::FeedRecord> records = srv::generate_feed(gen);
  const std::size_t feed_bytes = rendered_feed(gen).size();

  std::istringstream ref_in(rendered_feed(gen));
  srv::FeedReader ref_feed(ref_in);
  srv::Server reference(tiny_server(gen));
  const srv::ServeResult ref = reference.serve(ref_feed);

  // Every link-fault kind. Offsets count each direction's bytes across
  // reconnects, so the plan is laid out to make what each fault hits
  // independent of timing:
  //  * feed leg: a reset an eighth of the way in (the server keeps the
  //    records before it, so the replay starts at a nonzero cursor), then
  //    a corruption a sixteenth of the feed into that replay, which
  //    fences the connection;
  //  * decisions leg: a duplicate, a stall and a corruption at 35-45% of
  //    the feed's size. Before the last connection that leg carries at
  //    most the decisions for the records ahead of the fence (under a
  //    fifth of the feed) and a few hundred bytes of handshakes, busy
  //    refusals and the error frame. The last connection then carries
  //    every later decision, past 80% of the feed. So all three land on
  //    decision frames of the last connection: the client dedupes the
  //    duplicated one and skips the garbled one.
  ASSERT_GT(records.size(), 200u);
  const double f = static_cast<double>(feed_bytes);
  fault::FaultPlan plan;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kLinkReset;
  e.start = std::floor(f / 8);
  plan.add(e);
  e = fault::FaultEvent{};
  e.kind = fault::FaultKind::kLinkCorrupt;
  e.port = 0;
  e.start = std::floor(f / 8 + f / 16);
  e.count = 4;
  plan.add(e);
  e = fault::FaultEvent{};
  e.kind = fault::FaultKind::kLinkDup;
  e.start = std::floor(0.35 * f);
  e.count = 2;
  plan.add(e);
  e = fault::FaultEvent{};
  e.kind = fault::FaultKind::kLinkStall;
  e.port = 1;
  e.start = std::floor(0.40 * f);
  e.duration = 0.02;
  plan.add(e);
  e = fault::FaultEvent{};
  e.kind = fault::FaultKind::kLinkCorrupt;
  e.port = 1;
  e.start = std::floor(0.45 * f);
  e.count = 3;
  plan.add(e);

  TempDir tmp;
  srv::TransportConfig tcfg;
  tcfg.endpoint = parse_endpoint("uds:" + socket_path(tmp, "chaos.sock"));
  srv::SocketTransport transport(tcfg);

  fault::ChaosLinkConfig lcfg;
  lcfg.listen = parse_endpoint("uds:" + socket_path(tmp, "proxy.sock"));
  lcfg.upstream = tcfg.endpoint;
  lcfg.plan = &plan;
  fault::ChaosLink chaos(lcfg);
  chaos.start();

  srv::ClientConfig ccfg;
  ccfg.endpoint = lcfg.listen;  // dial through the chaos proxy
  ccfg.reconnect_deadline_sec = 10.0;
  ClientRun run;
  std::thread producer = drive_client(ccfg, records, &run);
  srv::Server server(tiny_server(gen));
  const srv::ServeResult res = server.serve(transport);
  producer.join();
  chaos.stop();
  ASSERT_FALSE(run.error) << "client threw: " << what(run.error);

  // Every scripted fault actually fired...
  const fault::ChaosLinkStats& stats = chaos.stats();
  EXPECT_EQ(stats.resets, 1);
  EXPECT_EQ(stats.corrupted_bytes, 7);
  EXPECT_EQ(stats.stalls, 1);
  EXPECT_EQ(stats.dup_frames, 2);
  EXPECT_GE(run.result.reconnects, 2);  // the reset + the fence
  EXPECT_GE(run.result.duplicates, 2u);
  EXPECT_GE(run.result.corrupt_frames, 1);
  EXPECT_GE(transport.connections_fenced(), 1);

  // ...and the deterministic counters still match the clean run exactly.
  EXPECT_EQ(run.result.status, "completed");
  EXPECT_EQ(res.totals.status, "completed");
  EXPECT_EQ(res.totals.records_consumed, ref.totals.records_consumed);
  EXPECT_EQ(server.slo().admitted(), reference.slo().admitted());
  EXPECT_EQ(server.slo().shed(), reference.slo().shed());
  EXPECT_EQ(server.slo().admitted_by_tenant(),
            reference.slo().admitted_by_tenant());
  EXPECT_EQ(server.slo().shed_by_tenant(), reference.slo().shed_by_tenant());
  EXPECT_EQ(res.totals.delivered_bytes, ref.totals.delivered_bytes);
  EXPECT_EQ(res.totals.flows_completed, ref.totals.flows_completed);
  EXPECT_EQ(res.totals.scheduler_invocations,
            ref.totals.scheduler_invocations);
  EXPECT_EQ(server.health().shed_entries(), reference.health().shed_entries());
}

TEST(Transport, InterruptResumeAndReconnectConverge) {
  const srv::LoadGenConfig gen = tiny_gen();
  const std::vector<srv::FeedRecord> records = srv::generate_feed(gen);

  std::istringstream ref_in(rendered_feed(gen));
  srv::FeedReader ref_feed(ref_in);
  srv::Server reference(tiny_server(gen));
  const srv::ServeResult ref = reference.serve(ref_feed);

  TempDir tmp;
  srv::ServerConfig config = tiny_server(gen);
  config.ckpt_dir = (tmp.path / "ckpts").string();
  config.run_id = "sock";
  config.ckpt_every_sec = 0.02;
  config.pace = 5.0;  // ~0.3 s wall for the 1.5 feed-s run
  const std::string path = "uds:" + socket_path(tmp, "kill.sock");

  // Phase 1: interrupt the paced server mid-run — the wall-clock analog
  // of a SIGKILL that happens to flush an emergency checkpoint. Where
  // exactly it lands does not matter; the differential below holds for
  // any cut point.
  {
    srv::TransportConfig tcfg;
    tcfg.endpoint = parse_endpoint(path);
    srv::SocketTransport transport(tcfg);
    srv::ClientConfig ccfg;
    ccfg.endpoint = tcfg.endpoint;
    ccfg.reconnect_deadline_sec = 1.0;  // fail fast once the server dies
    ClientRun run;
    std::thread producer = drive_client(ccfg, records, &run);
    std::thread killer([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      request_interrupt(0);
    });
    srv::Server first(config);
    const srv::ServeResult r = first.serve(transport);
    killer.join();
    producer.join();
    clear_interrupt();
    // The producer either collected `complete,<seq>,interrupted` or lost
    // the listener mid-reconnect; both are legitimate outcomes here.
    if (!run.error) {
      EXPECT_EQ(run.result.status, r.totals.status);
    }
  }

  // Phase 2: resume from the newest checkpoint on a fresh listener. The
  // hello advertises the checkpoint cursor; the producer replays its
  // full batch and the server skips everything already consumed.
  const std::string latest =
      ckpt::CheckpointManager::latest(config.ckpt_dir, config.run_id);
  ASSERT_FALSE(latest.empty());
  const srv::ServerCkpt state = srv::read_server_ckpt_file(latest);
  config.pace = 0.0;

  srv::TransportConfig tcfg;
  tcfg.endpoint = parse_endpoint(path);
  tcfg.start_cursor = state.feed_records_consumed;
  srv::SocketTransport transport(tcfg);
  srv::ClientConfig ccfg;
  ccfg.endpoint = tcfg.endpoint;
  ClientRun run;
  std::thread producer = drive_client(ccfg, records, &run);
  srv::Server resumed(config, state);
  const srv::ServeResult res = resumed.serve(transport);
  producer.join();
  ASSERT_FALSE(run.error) << "client threw on resume";

  EXPECT_EQ(run.result.status, "completed");
  EXPECT_EQ(res.totals.status, "completed");
  EXPECT_TRUE(res.totals.resumed);
  EXPECT_EQ(res.totals.records_consumed, ref.totals.records_consumed);
  EXPECT_EQ(resumed.slo().admitted(), reference.slo().admitted());
  EXPECT_EQ(resumed.slo().shed(), reference.slo().shed());
  EXPECT_EQ(resumed.slo().admitted_by_tenant(),
            reference.slo().admitted_by_tenant());
  EXPECT_EQ(resumed.slo().shed_by_tenant(), reference.slo().shed_by_tenant());
  EXPECT_EQ(res.totals.delivered_bytes, ref.totals.delivered_bytes);
  EXPECT_EQ(res.totals.flows_completed, ref.totals.flows_completed);
  EXPECT_EQ(res.totals.backlog_bytes_at_end, ref.totals.backlog_bytes_at_end);
  EXPECT_EQ(resumed.health().shed_entries(),
            reference.health().shed_entries());
}

TEST(Transport, RefusesASecondProducerPolitely) {
  TempDir tmp;
  srv::TransportConfig tcfg;
  tcfg.endpoint = parse_endpoint("uds:" + socket_path(tmp, "busy.sock"));
  tcfg.session_idle_sec = 0.0;
  srv::SocketTransport transport(tcfg);

  UniqueFd first = connect_endpoint(tcfg.endpoint);
  ASSERT_TRUE(first.valid());
  (void)transport.next(false);  // accept the first producer
  UniqueFd second = connect_endpoint(tcfg.endpoint);
  ASSERT_TRUE(second.valid());
  (void)transport.next(false);  // refuse the latecomer

  // The refusal is a well-formed decisions stream: header, then an
  // error frame naming the cause.
  std::string got;
  while (got.find('\n') == std::string::npos ||
         got.find('\n') == got.size() - 1) {
    struct pollfd fd = {second.get(), POLLIN, 0};
    ASSERT_GT(poll_fds(&fd, 1, 2000), 0) << "no refusal within 2 s";
    char buf[256];
    const long n = read_some(second.get(), buf, sizeof(buf));
    if (n == -EAGAIN || n == -EWOULDBLOCK) {
      continue;
    }
    ASSERT_GT(n, 0);
    got.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(got.substr(0, got.find('\n')), srv::kDecisionsMagic);
  EXPECT_NE(got.find("error,0,0,busy"), std::string::npos);
  EXPECT_EQ(transport.connections_refused(), 1);
  EXPECT_EQ(transport.connections_accepted(), 1);
}

TEST(Client, GivesUpAfterTheReconnectDeadline) {
  TempDir tmp;
  srv::ClientConfig config;
  config.endpoint = parse_endpoint("uds:" + socket_path(tmp, "nobody.sock"));
  config.backoff_initial_sec = 0.01;
  config.reconnect_deadline_sec = 0.15;
  srv::Client client(config);
  const std::vector<srv::FeedRecord> records = {
      make_record(0.0, 0, 1, 10)};
  EXPECT_THROW((void)client.run(records), ConfigError);
}

}  // namespace
}  // namespace basrpt
