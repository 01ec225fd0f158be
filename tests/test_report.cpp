// Tests for src/report (CSV/gnuplot emitters), number fidelity of the
// JSON reports (--metrics and basrptd's SLO report), the fair-sharing
// service model, and multi-seed replication.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/replication.hpp"
#include "flowsim/flow_sim.hpp"
#include "report/csv.hpp"
#include "report/gnuplot.hpp"
#include "report/metrics_json.hpp"
#include "sched/srpt.hpp"
#include "srv/health.hpp"
#include "srv/slo.hpp"
#include "workload/generators.hpp"
#include "workload/traffic.hpp"

namespace basrpt {
namespace {

// -------------------------------------------------------------------- CSV

stats::TimeSeries make_series(double t0, double slope, int n) {
  stats::TimeSeries ts;
  for (int i = 0; i < n; ++i) {
    ts.add(SimTime{t0 + i}, slope * i);
  }
  return ts;
}

TEST(ReportCsv, HeaderAndGridShape) {
  const auto a = make_series(0.0, 1.0, 50);
  const auto b = make_series(0.0, 2.0, 50);
  std::ostringstream out;
  report::write_series(out, {{"a", &a}, {"b", &b}}, 11);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "time,a,b");
  int rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2);
  }
  EXPECT_EQ(rows, 11);
}

TEST(ReportCsv, SampleAndHoldValues) {
  stats::TimeSeries ts;
  ts.add(SimTime{0.0}, 10.0);
  ts.add(SimTime{10.0}, 20.0);
  std::ostringstream out;
  report::write_series(out, {{"v", &ts}}, 3);  // grid: 0, 5, 10
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_NE(line.find(",10"), std::string::npos);  // t=0 → 10
  std::getline(in, line);
  EXPECT_NE(line.find(",10"), std::string::npos);  // t=5 holds 10
  std::getline(in, line);
  EXPECT_NE(line.find(",20"), std::string::npos);  // t=10 → 20
}

TEST(ReportCsv, SeriesWithDifferentSpansAlign) {
  const auto early = make_series(0.0, 1.0, 10);   // t in [0, 9]
  const auto late = make_series(5.0, 1.0, 10);    // t in [5, 14]
  std::ostringstream out;
  report::write_series(out, {{"early", &early}, {"late", &late}}, 16);
  // Grid spans [0, 14]; before t=5 the late column holds 0.
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  std::getline(in, line);  // t = 0
  EXPECT_NE(line.find("0,0,0"), std::string::npos);
}

TEST(ReportCsv, RejectsEmptyAndMalformed) {
  std::ostringstream out;
  EXPECT_THROW(report::write_series(out, {}), ConfigError);
  stats::TimeSeries empty;
  EXPECT_THROW(report::write_series(out, {{"e", &empty}}), ConfigError);
  const auto a = make_series(0.0, 1.0, 5);
  EXPECT_THROW(report::write_series(out, {{"bad,name", &a}}), ConfigError);
}

TEST(ReportCsv, WritesFile) {
  const auto a = make_series(0.0, 1.0, 20);
  const std::string path = ::testing::TempDir() + "/basrpt_series.csv";
  report::write_series_file(path, {{"a", &a}}, 8);
  std::ifstream check(path);
  EXPECT_TRUE(check.good());
}

// ----------------------------------------------------------------- gnuplot

TEST(Gnuplot, RendersCompleteScript) {
  report::GnuplotScript script("Fig 5b", "time (s)", "queue (MB)");
  script.with_data("fig5b.csv")
      .with_output("fig5b.png")
      .add_series("srpt", 2)
      .add_series("fast basrpt", 3);
  const std::string text = script.render();
  EXPECT_NE(text.find("set output 'fig5b.png'"), std::string::npos);
  EXPECT_NE(text.find("using 1:2"), std::string::npos);
  EXPECT_NE(text.find("using 1:3"), std::string::npos);
  EXPECT_NE(text.find("title 'srpt'"), std::string::npos);
  EXPECT_EQ(text.find("logscale"), std::string::npos);
}

TEST(Gnuplot, LogscaleOptIn) {
  report::GnuplotScript script("t", "x", "y");
  script.with_data("d.csv").add_series("s", 2).with_logscale_y();
  EXPECT_NE(script.render().find("set logscale y"), std::string::npos);
}

TEST(Gnuplot, RejectsIncompleteScripts) {
  report::GnuplotScript no_data("t", "x", "y");
  no_data.add_series("s", 2);
  EXPECT_THROW(no_data.render(), ConfigError);
  report::GnuplotScript no_series("t", "x", "y");
  no_series.with_data("d.csv");
  EXPECT_THROW(no_series.render(), ConfigError);
  report::GnuplotScript bad("t", "x", "y");
  EXPECT_THROW(bad.add_series("s", 1), ConfigError);
}

// ------------------------------------------------------------ fair sharing

TEST(FairSharing, SplitsASharedLinkEvenly) {
  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(1.0);
  config.service_model = flowsim::ServiceModel::kFairSharing;
  sched::SrptScheduler unused;
  // Two equal flows sharing one ingress: fair sharing finishes both at
  // 2x the solo time (vs SRPT which serializes: 1x and 2x).
  std::vector<workload::FlowArrival> arrivals(2);
  arrivals[0].time = SimTime{0.0};
  arrivals[0].src = 0;
  arrivals[0].dst = 1;
  arrivals[0].size = 125_MB;
  arrivals[1].time = SimTime{0.0};
  arrivals[1].src = 0;
  arrivals[1].dst = 2;
  arrivals[1].size = 125_MB;
  workload::VectorTraffic traffic(arrivals);
  const auto result = run_flow_sim(config, unused, traffic);
  ASSERT_EQ(result.flows_completed, 2);
  const auto b = result.fct.summary(stats::FlowClass::kBackground);
  // Both finish at ~0.2 s (100 ms of solo service at half rate).
  EXPECT_NEAR(b.mean_seconds, 0.2, 1e-3);
  EXPECT_NEAR(b.max_seconds, 0.2, 1e-3);
}

TEST(FairSharing, StableButWorseForShortFlowsThanSrpt) {
  core::ExperimentConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.load = 0.8;
  config.query_share = 0.2;
  config.horizon = seconds(0.5);
  config.seed = 17;

  config.service_model = flowsim::ServiceModel::kFairSharing;
  const auto fair = core::run_experiment(config);
  config.service_model = flowsim::ServiceModel::kMatchingScheduler;
  config.scheduler = sched::SchedulerSpec::srpt();
  const auto srpt = core::run_experiment(config);

  EXPECT_EQ(fair.scheduler_name, "fair-sharing");
  ASSERT_GT(fair.flows_completed, 500);
  // The SRPT-vs-fair-sharing delay gap that motivates the whole line of
  // work: queries complete much faster under SRPT.
  EXPECT_GT(fair.query_avg_ms, srpt.query_avg_ms * 2.0);
  EXPECT_FALSE(fair.total_backlog_trend.growing);
}

TEST(FairSharing, ConservesBytes) {
  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(0.2);
  config.service_model = flowsim::ServiceModel::kFairSharing;
  sched::SrptScheduler unused;
  Rng rng(23);
  auto traffic = workload::paper_mix(0.8, 0.2, 2, 4, gbps(10.0),
                                     seconds(0.2), rng);
  const auto result = run_flow_sim(config, unused, *traffic);
  EXPECT_EQ(result.delivered + result.bytes_left, result.bytes_arrived);
}

// ------------------------------------------------------------- replication

TEST(Replication, AggregatesAcrossSeeds) {
  core::ExperimentConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.load = 0.6;
  config.horizon = seconds(0.2);
  config.scheduler = sched::SchedulerSpec::fast_basrpt(400.0);
  const auto result = core::run_replicated(config, 4);
  EXPECT_EQ(result.replicas, 4);
  EXPECT_EQ(result.query_avg_ms.n, 4);
  EXPECT_GT(result.query_avg_ms.mean, 0.0);
  EXPECT_GE(result.query_avg_ms.half_width95, 0.0);
  // Different seeds genuinely vary the workload.
  EXPECT_GT(result.query_avg_ms.stddev, 0.0);
  EXPECT_FALSE(result.majority_unstable());
}

TEST(Replication, SingleReplicaHasNoHalfWidth) {
  core::ExperimentConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.load = 0.5;
  config.horizon = seconds(0.1);
  const auto result = core::run_replicated(config, 1);
  EXPECT_EQ(result.replicas, 1);
  EXPECT_DOUBLE_EQ(result.query_avg_ms.half_width95, 0.0);
}

// ------------------------------------------------------ JSON reports

/// strtod of the number token following the first `"key":` in `text`.
double number_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) {
    return 0.0;
  }
  return std::strtod(text.c_str() + at + key.size() + 3, nullptr);
}

TEST(Reports, NumbersRoundTripExactly) {
  // Past 1000 feed-seconds six significant digits keep only 10 ms; the
  // reports must carry every bit instead.
  const double t = 1234.56789;
  srv::SloTracker slo;
  slo.record_admit(0);
  slo.record_shed(1, t);
  srv::HealthConfig config;
  config.shed_enter_backlog_bytes = 1000;
  config.shed_exit_backlog_bytes = 500;
  srv::HealthMonitor health(config);
  health.update({0.0, 0, 0, false, false, -1.0});
  health.update({t, 5000, 0, false, false, -1.0});
  ASSERT_EQ(health.transitions().size(), 1u);
  srv::SloRunTotals totals;
  totals.feed_seconds = 2 * t;
  std::ostringstream slo_out;
  srv::write_slo_json(slo_out, slo, health, totals);
  EXPECT_EQ(number_after(slo_out.str(), "time_sec"), t);
  EXPECT_EQ(number_after(slo_out.str(), "last_shed_sec"), t);
  EXPECT_EQ(number_after(slo_out.str(), "feed_seconds"), 2 * t);
  EXPECT_EQ(number_after(slo_out.str(), "shed_rate"), 0.5);

  obs::Registry registry;
  registry.gauge("g").set(123456789.5);
  registry.histogram("h").add(3);
  registry.histogram("h").add(4);
  std::ostringstream metrics_out;
  report::write_metrics_json(metrics_out, registry);
  EXPECT_EQ(number_after(metrics_out.str(), "value"), 123456789.5);
  EXPECT_EQ(number_after(metrics_out.str(), "mean"), 3.5);
}

TEST(Replication, EstimateToString) {
  core::MetricEstimate estimate;
  estimate.mean = 1.5;
  estimate.half_width95 = 0.25;
  EXPECT_EQ(estimate.to_string(2), "1.50 ±0.25");
}

TEST(Replication, RejectsZeroReplicas) {
  core::ExperimentConfig config;
  EXPECT_THROW(core::run_replicated(config, 0), ConfigError);
}

}  // namespace
}  // namespace basrpt
