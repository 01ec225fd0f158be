// Tests for the extension features: load governor, trace I/O,
// distributed BASRPT, size-estimation noise, reschedule batching, and
// the exact 2x2 DTMC solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "dist/flow_sizes.hpp"
#include "flowsim/flow_sim.hpp"
#include "queueing/dtmc.hpp"
#include "sched/distributed_basrpt.hpp"
#include "sched/factory.hpp"
#include "sched/fast_basrpt.hpp"
#include "sched/noisy.hpp"
#include "sched/srpt.hpp"
#include "srv/feed.hpp"
#include "switchsim/arrivals.hpp"
#include "switchsim/slotted_sim.hpp"
#include "workload/generators.hpp"
#include "workload/governor.hpp"

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

Flow make_flow(FlowId id, PortId src, PortId dst, std::int64_t packets) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = Bytes{packets};
  f.remaining = f.size;
  return f;
}

// ----------------------------------------------------------- LoadGovernor

TEST(LoadGovernor, AdmitsWithinBudgetRejectsBeyond) {
  workload::LoadGovernor governor(4, gbps(10.0), 0.9, 10_KB);
  // At t=0 only the slack is available.
  EXPECT_TRUE(governor.would_admit(0, 1, 8_KB, SimTime{0.0}));
  governor.commit(0, 1, 8_KB);
  EXPECT_FALSE(governor.would_admit(0, 2, 8_KB, SimTime{0.0}));
  // Another ingress still has its own budget.
  EXPECT_TRUE(governor.would_admit(2, 3, 8_KB, SimTime{0.0}));
  // Later, the budget has grown: 0.9 * 1.25 GB/s * 1 s >> 8 KB.
  EXPECT_TRUE(governor.would_admit(0, 2, 8_KB, SimTime{1.0}));
}

TEST(LoadGovernor, EgressBudgetIsIndependent) {
  workload::LoadGovernor governor(4, gbps(10.0), 0.9, 10_KB);
  governor.commit(0, 1, 8_KB);
  // Ingress 2 is fresh but egress 1 is nearly exhausted.
  EXPECT_FALSE(governor.would_admit(2, 1, 8_KB, SimTime{0.0}));
  EXPECT_EQ(governor.offered_ingress(0), 8_KB);
  EXPECT_EQ(governor.offered_egress(1), 8_KB);
}

TEST(LoadGovernor, GovernedMixKeepsEveryPortUnderCap) {
  Rng rng(1);
  const double load = 0.95;
  auto source = workload::paper_mix(load, 0.1, 2, 4, gbps(10.0),
                                    seconds(2.0), rng);
  std::vector<double> ingress_bytes(8, 0.0);
  std::vector<double> egress_bytes(8, 0.0);
  double last = 0.0;
  while (auto a = source->next()) {
    ingress_bytes[static_cast<std::size_t>(a->src)] +=
        static_cast<double>(a->size.count);
    egress_bytes[static_cast<std::size_t>(a->dst)] +=
        static_cast<double>(a->size.count);
    last = a->time.seconds;
  }
  ASSERT_GT(last, 1.0);
  const double cap_bps = (load + 0.03) * 1e10;
  const double slack = 60e6 * 8.0;
  for (int p = 0; p < 8; ++p) {
    EXPECT_LE(ingress_bytes[static_cast<std::size_t>(p)] * 8.0,
              cap_bps * last + slack)
        << "ingress " << p;
    EXPECT_LE(egress_bytes[static_cast<std::size_t>(p)] * 8.0,
              cap_bps * last + slack)
        << "egress " << p;
  }
}

TEST(LoadGovernor, RejectsBadParameters) {
  EXPECT_THROW(workload::LoadGovernor(0, gbps(10.0), 0.9), ConfigError);
  EXPECT_THROW(workload::LoadGovernor(4, gbps(10.0), 0.0), ConfigError);
  EXPECT_THROW(workload::LoadGovernor(4, gbps(10.0), 1.5), ConfigError);
}

// ----------------------------------------------------- recorded traces

/// Every arrival of a seeded paper_mix stream on `fabric`, as feed
/// records: a workload recorded once for replay.
std::vector<srv::FeedRecord> record_paper_mix(const topo::FabricConfig& fabric,
                                              double load, SimTime horizon,
                                              std::uint64_t seed) {
  const workload::TrafficSourcePtr source =
      workload::paper_mix(load, 0.2, fabric.racks, fabric.hosts_per_rack,
                          fabric.host_link, horizon, Rng(seed));
  std::vector<srv::FeedRecord> records;
  while (const auto arrival = source->next()) {
    records.push_back({*arrival, 0});
  }
  return records;
}

std::vector<workload::FlowArrival> arrivals_of(
    const std::vector<srv::FeedRecord>& records) {
  std::vector<workload::FlowArrival> arrivals;
  for (const srv::FeedRecord& record : records) {
    arrivals.push_back(record.arrival);
  }
  return arrivals;
}

/// A hand-written recording: both classes, and two arrivals at one time.
std::vector<srv::FeedRecord> sample_recording() {
  std::vector<srv::FeedRecord> records(3);
  records[0].arrival.time = SimTime{0.001};
  records[0].arrival.src = 3;
  records[0].arrival.dst = 7;
  records[0].arrival.size = 20_KB;
  records[0].arrival.cls = stats::FlowClass::kQuery;
  records[1].arrival.time = SimTime{0.002};
  records[1].arrival.src = 1;
  records[1].arrival.dst = 2;
  records[1].arrival.size = 5_MB;
  records[1].arrival.cls = stats::FlowClass::kBackground;
  records[2].arrival.time = SimTime{0.002};
  records[2].arrival.src = 0;
  records[2].arrival.dst = 4;
  records[2].arrival.size = 1_KB;
  records[2].arrival.cls = stats::FlowClass::kQuery;
  return records;
}

/// Reads a recording made of the feed header, `body` and the `end` line.
std::vector<srv::FeedRecord> read_recording(const std::string& body) {
  std::stringstream in(std::string(srv::kFeedMagic) + "\n" + body + "end\n");
  return srv::read_feed(in);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const std::vector<srv::FeedRecord> original = sample_recording();
  std::stringstream buffer;
  srv::write_feed(buffer, original);
  const std::vector<srv::FeedRecord> restored = srv::read_feed(buffer);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].arrival.time.seconds,
              original[i].arrival.time.seconds);  // bit-exact
    EXPECT_EQ(restored[i].arrival.src, original[i].arrival.src);
    EXPECT_EQ(restored[i].arrival.dst, original[i].arrival.dst);
    EXPECT_EQ(restored[i].arrival.size, original[i].arrival.size);
    EXPECT_EQ(restored[i].arrival.cls, original[i].arrival.cls);
    EXPECT_EQ(restored[i].tenant, original[i].tenant);
  }
}

TEST(TraceIo, RejectsMalformedInput) {
  {
    std::stringstream bad("not-a-trace\nflow,1.0,0,1,100,q\nend\n");
    EXPECT_THROW(srv::read_feed(bad), ConfigError);
  }
  EXPECT_THROW(read_recording("flow,1.0,2,3\n"), ConfigError);
  EXPECT_THROW(read_recording("flow,1.0,2,3,100,x\n"), ConfigError);
  // Times going backwards.
  EXPECT_THROW(read_recording("flow,2.0,0,1,100,q\nflow,1.0,0,1,100,q\n"),
               ConfigError);
}

TEST(TraceIo, OverflowingNumbersRejected) {
  EXPECT_THROW(read_recording("flow,1e999,0,1,100,q\n"), ConfigError);
  EXPECT_THROW(read_recording("flow,1.0,0,1,99999999999999999999,q\n"),
               ConfigError);
}

TEST(TraceIo, TrailingGarbageInNumbersRejected) {
  // A partial conversion ("1.5x" read as 1.5) must not be accepted.
  EXPECT_THROW(read_recording("flow,1.5x,0,1,100,q\n"), ConfigError);
  EXPECT_THROW(read_recording("flow,1.0,0y,1,100,q\n"), ConfigError);
}

TEST(TraceIo, WrongFieldCountRejected) {
  EXPECT_THROW(read_recording("flow,1.0,0,1,100\n"), ConfigError);
  EXPECT_THROW(read_recording("flow,1.0,0,1,100,q,0,extra\n"), ConfigError);
  // A trailing comma is a real (empty) field, not whitespace.
  EXPECT_THROW(read_recording("flow,1.0,0,1,100,q,\n"), ConfigError);
  EXPECT_THROW(read_recording("flow,1.0,0,1,100,q,0,\n"), ConfigError);
}

TEST(TraceIo, NegativePortsAndSizesRejected) {
  EXPECT_THROW(read_recording("flow,1.0,-1,1,100,q\n"), ConfigError);
  EXPECT_THROW(read_recording("flow,1.0,0,-1,100,q\n"), ConfigError);
  EXPECT_THROW(read_recording("flow,1.0,0,1,-100,q\n"), ConfigError);
}

TEST(TraceIo, CrlfLineEndingsAccepted) {
  std::stringstream in(std::string(srv::kFeedMagic) +
                       "\r\nflow,0.5,1,2,777,b\r\nend\r\n");
  const std::vector<srv::FeedRecord> trace = srv::read_feed(in);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].arrival.size.count, 777);
  EXPECT_EQ(trace[0].arrival.cls, stats::FlowClass::kBackground);
}

TEST(TraceIo, FileRoundTrip) {
  const topo::FabricConfig fabric = topo::small_fabric(2, 4, 2);
  const std::vector<srv::FeedRecord> recorded =
      record_paper_mix(fabric, 0.5, seconds(0.01), 23);
  ASSERT_FALSE(recorded.empty());
  const std::string path = ::testing::TempDir() + "/basrpt_trace_test.feed";
  srv::write_feed_file(path, recorded);
  const std::vector<srv::FeedRecord> restored = srv::read_feed_file(path);
  ASSERT_EQ(restored.size(), recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    const workload::FlowArrival& a = recorded[i].arrival;
    const workload::FlowArrival& b = restored[i].arrival;
    EXPECT_EQ(b.time.seconds, a.time.seconds) << i;  // bit-exact
    EXPECT_EQ(b.src, a.src) << i;
    EXPECT_EQ(b.dst, a.dst) << i;
    EXPECT_EQ(b.size, a.size) << i;
    EXPECT_EQ(b.cls, a.cls) << i;
  }
}

TEST(TraceIo, TruncatedFileRejected) {
  // The writer terminates every line; a recording cut mid-line must not
  // replay as a shorter workload.
  const std::string path = ::testing::TempDir() + "/basrpt_torn.feed";
  {
    std::ofstream out(path);
    out << srv::kFeedMagic << "\nflow,1.0,0,1,100,q\nflow,2.0,0,1,1";
  }
  EXPECT_THROW(srv::read_feed_file(path), ParseError);
}

TEST(TraceIo, RecordingCutAtALineBoundaryRejected) {
  // A recording that lost its last record and its `end` line is still
  // made of whole lines. It must not replay as a shorter workload.
  std::ostringstream written;
  srv::write_feed(written, sample_recording());
  std::string text = written.str();
  const std::size_t end_line = text.rfind("end\n");
  ASSERT_EQ(end_line + 4, text.size());
  text.resize(text.rfind('\n', end_line - 2) + 1);
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 4);  // 2 records

  std::istringstream in(text);
  try {
    srv::read_feed(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("'end' line"), std::string::npos)
        << e.what();
  }
  const std::string path = ::testing::TempDir() + "/basrpt_cut.feed";
  {
    std::ofstream out(path);
    out << text;
  }
  EXPECT_THROW(srv::read_feed_file(path), ParseError);
}

TEST(TraceIo, ParseErrorCarriesLineNumber) {
  // Line 3 is the bad row (the header is line 1), and the message says so.
  std::stringstream bad(std::string(srv::kFeedMagic) +
                        "\nflow,1.0,0,1,100,q\nflow,2.0,0,1,100,z\n");
  try {
    srv::read_feed(bad);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  const std::vector<srv::FeedRecord> trace =
      read_recording("# comment\n\nflow,0.5,1,2,777,b\n");
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].arrival.size.count, 777);
}

TEST(TraceIo, ReplayReproducesSimulationExactly) {
  // Record a random workload as a basrpt-feed-v1 stream, then run the
  // simulator on the live source and on the parsed recording: results
  // must match bit-for-bit.
  const topo::FabricConfig fabric = topo::small_fabric(2, 4, 2);
  flowsim::FlowSimConfig config;
  config.fabric = fabric;
  config.horizon = seconds(0.15);
  sched::SrptScheduler srpt;
  const workload::TrafficSourcePtr live_source =
      workload::paper_mix(0.7, 0.2, fabric.racks, fabric.hosts_per_rack,
                          fabric.host_link, config.horizon, Rng(21));
  const auto live = run_flow_sim(config, srpt, *live_source);

  const std::vector<srv::FeedRecord> recorded =
      record_paper_mix(fabric, 0.7, config.horizon, 21);
  std::stringstream feed;
  srv::write_feed(feed, recorded);
  const std::vector<srv::FeedRecord> parsed = srv::read_feed(feed);
  ASSERT_EQ(parsed.size(), recorded.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    ASSERT_EQ(parsed[i].arrival.time.seconds,
              recorded[i].arrival.time.seconds);
  }
  workload::VectorTraffic replay(arrivals_of(parsed));
  const auto replayed = run_flow_sim(config, srpt, replay);

  EXPECT_GT(live.flows_arrived, 100);
  EXPECT_EQ(live.flows_arrived, replayed.flows_arrived);
  EXPECT_EQ(live.flows_completed, replayed.flows_completed);
  EXPECT_EQ(live.delivered, replayed.delivered);
  EXPECT_EQ(live.fct.summary(stats::FlowClass::kQuery).mean_seconds,
            replayed.fct.summary(stats::FlowClass::kQuery).mean_seconds);
}

TEST(TraceIo, FileRoundTripPreservesSimulation) {
  const topo::FabricConfig fabric = topo::small_fabric(2, 4, 2);
  const std::vector<srv::FeedRecord> recorded =
      record_paper_mix(fabric, 0.6, seconds(0.1), 22);
  const std::string path = ::testing::TempDir() + "/basrpt_replay.feed";
  srv::write_feed_file(path, recorded);

  flowsim::FlowSimConfig config;
  config.fabric = fabric;
  config.horizon = seconds(0.1);
  sched::SrptScheduler srpt;
  workload::VectorTraffic from_memory(arrivals_of(recorded));
  const auto a = run_flow_sim(config, srpt, from_memory);
  workload::VectorTraffic from_file(arrivals_of(srv::read_feed_file(path)));
  const auto b = run_flow_sim(config, srpt, from_file);
  EXPECT_GT(a.flows_arrived, 100);
  EXPECT_EQ(a.flows_arrived, b.flows_arrived);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.delivered, b.delivered);
}

// ---------------------------------------------------- distributed BASRPT

TEST(DistributedBasrpt, ProducesValidMatchings) {
  Rng rng(2);
  sched::DistributedBasrptScheduler sched(100.0, 3);
  for (int trial = 0; trial < 20; ++trial) {
    VoqMatrix voqs(6);
    for (FlowId id = 0; id < 24; ++id) {
      const auto src = static_cast<PortId>(rng.uniform_int(0, 5));
      auto dst = static_cast<PortId>(rng.uniform_int(0, 4));
      if (dst >= src) {
        ++dst;
      }
      voqs.add_flow(make_flow(id + trial * 100, src, dst,
                              rng.uniform_int(1, 100)));
    }
    const auto decision =
        decide_aos(sched, 6, sched::build_candidates(voqs, 1.0));
    EXPECT_TRUE(sched::decision_is_matching(decision, voqs));
    EXPECT_GE(decision.selected.size(), 1u);
  }
}

TEST(DistributedBasrpt, EnoughRoundsYieldMaximalMatching) {
  // With rounds >= ports, every unmatched ingress with a free egress got
  // to request it, so the result is maximal over the candidate support
  // (the selections may differ from centralized greedy — both are
  // maximal matchings, which need not coincide).
  Rng rng(3);
  sched::DistributedBasrptScheduler dist(100.0, 16);
  for (int trial = 0; trial < 20; ++trial) {
    VoqMatrix voqs(5);
    for (FlowId id = 0; id < 15; ++id) {
      const auto src = static_cast<PortId>(rng.uniform_int(0, 4));
      auto dst = static_cast<PortId>(rng.uniform_int(0, 3));
      if (dst >= src) {
        ++dst;
      }
      voqs.add_flow(make_flow(id + trial * 100, src, dst,
                              rng.uniform_int(1, 100)));
    }
    const auto candidates = sched::build_candidates(voqs, 1.0);
    const auto decision = decide_aos(dist, 5, candidates);
    EXPECT_TRUE(sched::decision_is_matching(decision, voqs));
    std::set<PortId> in_used;
    std::set<PortId> out_used;
    for (const FlowId id : decision.selected) {
      in_used.insert(voqs.flow(id).src);
      out_used.insert(voqs.flow(id).dst);
    }
    for (const auto& c : candidates) {
      EXPECT_TRUE(in_used.count(c.ingress) || out_used.count(c.egress))
          << "candidate VOQ (" << c.ingress << "," << c.egress
          << ") was addable — not maximal";
    }
  }
}

TEST(DistributedBasrpt, OneRoundPicksGloballyBestPerEgress) {
  VoqMatrix voqs(3);
  voqs.add_flow(make_flow(1, 0, 2, 10));  // key smaller (shorter)
  voqs.add_flow(make_flow(2, 1, 2, 50));  // same egress, worse key
  sched::DistributedBasrptScheduler sched(30.0, 1);
  const auto decision =
      decide_aos(sched, 3, sched::build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 1u);
  EXPECT_EQ(decision.selected[0], 1);
}

TEST(DistributedBasrpt, MoreRoundsNeverSelectFewer) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    VoqMatrix voqs(6);
    for (FlowId id = 0; id < 20; ++id) {
      const auto src = static_cast<PortId>(rng.uniform_int(0, 5));
      auto dst = static_cast<PortId>(rng.uniform_int(0, 4));
      if (dst >= src) {
        ++dst;
      }
      voqs.add_flow(make_flow(id + trial * 100, src, dst,
                              rng.uniform_int(1, 100)));
    }
    const auto candidates = sched::build_candidates(voqs, 1.0);
    std::size_t last = 0;
    for (int rounds = 1; rounds <= 6; ++rounds) {
      sched::DistributedBasrptScheduler sched(100.0, rounds);
      const auto size = decide_aos(sched, 6, candidates).selected.size();
      EXPECT_GE(size, last);
      last = size;
    }
  }
}

TEST(DistributedBasrpt, FactoryIntegration) {
  const auto spec = sched::SchedulerSpec::dist_basrpt(500.0, 2);
  EXPECT_EQ(sched::make_scheduler(spec)->name(), "dist-basrpt(V=500 r=2)");
  EXPECT_EQ(sched::parse_policy("dist-basrpt"),
            sched::Policy::kDistBasrpt);
}

// ------------------------------------------------------------ noisy sizes

TEST(NoisySizes, ExactErrorIsPassThrough) {
  VoqMatrix voqs(3);
  voqs.add_flow(make_flow(1, 0, 1, 10));
  voqs.add_flow(make_flow(2, 1, 2, 5));
  const auto candidates = sched::build_candidates(voqs, 1.0);
  sched::SrptScheduler plain;
  sched::NoisySizeScheduler noisy(
      std::make_unique<sched::SrptScheduler>(), 1.0, 99);
  EXPECT_EQ(decide_aos(noisy, 3, candidates).selected,
            decide_aos(plain, 3, candidates).selected);
}

TEST(NoisySizes, LargeErrorCanReorderSrpt) {
  // Two flows with close sizes on conflicting ports: with a 10x error
  // some seeds must flip the order.
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 100));
  voqs.add_flow(make_flow(2, 1, 1, 110));
  const auto candidates = sched::build_candidates(voqs, 1.0);
  bool flipped = false;
  for (std::uint64_t seed = 0; seed < 32 && !flipped; ++seed) {
    sched::NoisySizeScheduler noisy(
        std::make_unique<sched::SrptScheduler>(), 10.0, seed);
    const auto decision = decide_aos(noisy, 2, candidates);
    ASSERT_EQ(decision.selected.size(), 1u);
    flipped = decision.selected[0] == 2;
  }
  EXPECT_TRUE(flipped);
}

TEST(NoisySizes, PerFlowFactorIsStableAcrossDecisions) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 100));
  voqs.add_flow(make_flow(2, 1, 1, 110));
  const auto candidates = sched::build_candidates(voqs, 1.0);
  sched::NoisySizeScheduler noisy(
      std::make_unique<sched::SrptScheduler>(), 10.0, 7);
  const auto first = decide_aos(noisy, 2, candidates).selected;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(decide_aos(noisy, 2, candidates).selected, first);
  }
}

TEST(NoisySizes, FactorySpecWrapsScheduler) {
  const auto spec =
      sched::SchedulerSpec::fast_basrpt(2500.0).with_size_error(4.0);
  const auto name = sched::make_scheduler(spec)->name();
  EXPECT_NE(name.find("noisy(x4)"), std::string::npos);
  EXPECT_NE(name.find("fast-basrpt"), std::string::npos);
}

TEST(NoisySizes, RejectsErrorBelowOne) {
  EXPECT_THROW(sched::NoisySizeScheduler(
                   std::make_unique<sched::SrptScheduler>(), 0.5, 1),
               ConfigError);
}

// ----------------------------------------------------- reschedule batching

TEST(RescheduleBatching, ReducesSchedulerInvocations) {
  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(0.3);
  Rng rng(5);

  sched::SrptScheduler srpt;
  auto t1 = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0), seconds(0.3),
                                rng);
  const auto immediate = run_flow_sim(config, srpt, *t1);

  config.min_reschedule_gap = microseconds(200.0);
  auto t2 = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0), seconds(0.3),
                                rng);
  const auto batched = run_flow_sim(config, srpt, *t2);

  EXPECT_LT(batched.scheduler_invocations,
            immediate.scheduler_invocations);
  // Work conservation: everything still flows; completions unchanged in
  // count (same arrivals, same horizon, similar service).
  EXPECT_EQ(batched.flows_arrived, immediate.flows_arrived);
  EXPECT_GT(batched.flows_completed, immediate.flows_completed * 9 / 10);
}

TEST(RescheduleBatching, QueryFctDegradesGracefully) {
  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(0.3);
  Rng rng(6);

  sched::SrptScheduler srpt;
  auto t1 = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0), seconds(0.3),
                                rng);
  const auto immediate = run_flow_sim(config, srpt, *t1);
  config.min_reschedule_gap = microseconds(100.0);
  auto t2 = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0), seconds(0.3),
                                rng);
  const auto batched = run_flow_sim(config, srpt, *t2);

  const auto q_now = immediate.fct.summary(stats::FlowClass::kQuery);
  const auto q_batched = batched.fct.summary(stats::FlowClass::kQuery);
  ASSERT_GT(q_now.completed, 100);
  // Deferral can add at most ~the gap to a query's service start; the
  // mean must stay within gap + slack of the immediate scheduler's.
  EXPECT_GE(q_batched.mean_seconds, q_now.mean_seconds * 0.9);
  EXPECT_LE(q_batched.mean_seconds, q_now.mean_seconds + 250e-6);
}

// ------------------------------------------------------------------- DTMC

TEST(Dtmc, EmptyArrivalsConcentrateAtZero) {
  queueing::Dtmc2x2Config config;
  config.arrival_prob = {{{0.0, 0.0}, {0.0, 0.0}}};
  config.cap = 4;
  const auto result = queueing::solve_2x2_chain(config);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.mean_total_queue, 0.0, 1e-9);
}

TEST(Dtmc, SymmetricLoadGivesSymmetricQueues) {
  queueing::Dtmc2x2Config config;
  config.arrival_prob = {{{0.35, 0.35}, {0.35, 0.35}}};
  config.cap = 12;
  const auto result = queueing::solve_2x2_chain(config);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.mean_total_queue, 0.5);
  EXPECT_NEAR(result.mean_queue[0][0], result.mean_queue[1][1], 1e-6);
  EXPECT_NEAR(result.mean_queue[0][1], result.mean_queue[1][0], 1e-6);
  EXPECT_LT(result.mass_at_cap, 1e-3);
}

TEST(Dtmc, HigherLoadMeansLongerQueues) {
  queueing::Dtmc2x2Config low;
  low.arrival_prob = {{{0.2, 0.2}, {0.2, 0.2}}};
  low.cap = 12;
  queueing::Dtmc2x2Config high = low;
  high.arrival_prob = {{{0.4, 0.4}, {0.4, 0.4}}};
  EXPECT_LT(queueing::solve_2x2_chain(low).mean_total_queue,
            queueing::solve_2x2_chain(high).mean_total_queue);
}

TEST(Dtmc, MaxWeightBeatsFixedPriorityOnAsymmetricLoad) {
  queueing::Dtmc2x2Config config;
  // The M2 pairs carry most of the load; fixed priority (always M1
  // when possible) wastes slots on them.
  config.arrival_prob = {{{0.1, 0.45}, {0.45, 0.1}}};
  config.cap = 14;
  config.policy = queueing::SlotPolicy::kMaxWeight;
  const auto maxweight = queueing::solve_2x2_chain(config);
  config.policy = queueing::SlotPolicy::kFixedPriority;
  const auto fixed = queueing::solve_2x2_chain(config);
  EXPECT_LT(maxweight.mean_total_queue, fixed.mean_total_queue);
}

TEST(Dtmc, MatchesSlottedSimulatorOnMaxWeight) {
  // The headline cross-check: analytic chain vs the simulator, unit
  // packets, MaxWeight, symmetric load 0.7 per port.
  queueing::Dtmc2x2Config config;
  config.arrival_prob = {{{0.35, 0.35}, {0.35, 0.35}}};
  config.cap = 16;
  const auto analytic = queueing::solve_2x2_chain(config);
  ASSERT_TRUE(analytic.converged);

  std::vector<std::vector<double>> rates = {{0.35, 0.35}, {0.35, 0.35}};
  switchsim::SizeMix unit;
  unit.small = 1;
  unit.large = 1;
  unit.p_small = 1.0;
  switchsim::SlottedConfig sim_config;
  sim_config.n_ports = 2;
  sim_config.horizon = 300'000;
  sim_config.watched_dst = 1;
  auto scheduler = sched::make_scheduler(sched::SchedulerSpec::maxweight());
  const auto sim = switchsim::run_slotted(
      sim_config, *scheduler,
      switchsim::bernoulli_arrivals(rates, unit, 300'000, Rng(7)));

  EXPECT_NEAR(sim.backlog_packets.mean() / analytic.mean_total_queue, 1.0,
              0.15);
}

TEST(Dtmc, RejectsBadConfig) {
  queueing::Dtmc2x2Config config;
  config.cap = 0;
  EXPECT_THROW(queueing::solve_2x2_chain(config), ConfigError);
  config.cap = 4;
  config.arrival_prob[0][0] = 1.5;
  EXPECT_THROW(queueing::solve_2x2_chain(config), ConfigError);
}

}  // namespace
}  // namespace basrpt
