// Trace workflow: generate a workload once, save it, replay it
// byte-for-byte under different schedulers.
//
//   ./trace_workflow --load=0.9 --horizon=0.5 --out=/tmp/basrpt.feed
//
// The recording is a basrpt-feed-v1 file (srv/feed.hpp), the format
// basrptd serves: %.17g times parse back to the same bits, so every
// replay equals the live run.
// Pinning the arrival sequence is how you compare schedulers without
// workload noise, share a regression workload across machines, or
// archive the exact input of a published figure.
#include <cstdio>
#include <cstdlib>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "flowsim/flow_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/metrics_json.hpp"
#include "sched/factory.hpp"
#include "srv/feed.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace basrpt;

  CliParser cli("trace_workflow", "record a workload, replay it");
  cli.real("load", 0.9, "per-host offered load")
      .real("horizon", 0.5, "simulated seconds")
      .integer("seed", 1, "workload RNG seed")
      .text("out", "/tmp/basrpt_example.feed", "recorded feed path")
      .text("metrics", "", "write run metrics (JSON, or CSV if *.csv)")
      .text("trace", "", "write flow lifecycle trace (Chrome JSON)")
      .real("heartbeat", 0.0, "log progress every N wall-seconds (0 = off)");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const bool want_metrics = !cli.get_text("metrics").empty();
  if (want_metrics) {
    obs::set_enabled(true);
    obs::Registry::global().reset();
  }
  // Heartbeat lines log at INFO but the default threshold is WARN;
  // asking for --heartbeat implies wanting to see them. An explicit
  // BASRPT_LOG_LEVEL still wins.
  if (cli.get_real("heartbeat") > 0.0 &&
      std::getenv("BASRPT_LOG_LEVEL") == nullptr &&
      log_level() > LogLevel::kInfo) {
    set_log_level(LogLevel::kInfo);
  }
  obs::FlowTracer tracer;
  const auto horizon = seconds(cli.get_real("horizon"));
  const topo::FabricConfig fabric = topo::small_fabric(2, 4, 2);

  // 1. Generate + record.
  Rng rng(static_cast<std::uint64_t>(cli.get_integer("seed")));
  const workload::TrafficSourcePtr source = workload::paper_mix(
      cli.get_real("load"), 0.15, fabric.racks, fabric.hosts_per_rack,
      fabric.host_link, horizon, rng);
  std::vector<srv::FeedRecord> recorded;
  while (const auto arrival = source->next()) {
    recorded.push_back({*arrival, 0});
  }
  srv::write_feed_file(cli.get_text("out"), recorded);
  std::printf("recorded %zu arrivals to %s\n", recorded.size(),
              cli.get_text("out").c_str());

  // 2. Replay the identical recording under several schedulers.
  std::vector<workload::FlowArrival> arrivals;
  for (const srv::FeedRecord& record :
       srv::read_feed_file(cli.get_text("out"))) {
    arrivals.push_back(record.arrival);
  }
  stats::Table table({"scheduler", "qry avg ms", "qry slowdown",
                      "bg avg ms", "thpt Gbps"});
  for (const auto& spec :
       {sched::SchedulerSpec::srpt(), sched::SchedulerSpec::fast_basrpt(400),
        sched::SchedulerSpec::fifo()}) {
    auto scheduler = sched::make_scheduler(spec);
    workload::VectorTraffic replay(arrivals);
    flowsim::FlowSimConfig config;
    config.fabric = fabric;
    config.horizon = horizon;
    config.tracer = cli.get_text("trace").empty() ? nullptr : &tracer;
    config.heartbeat_wall_sec = cli.get_real("heartbeat");
    const auto r = flowsim::run_flow_sim(config, *scheduler, replay);
    const auto q = r.fct.summary(stats::FlowClass::kQuery);
    const auto b = r.fct.summary(stats::FlowClass::kBackground);
    table.add_row({scheduler->name(), stats::cell(q.mean_seconds * 1e3),
                   stats::cell(q.mean_slowdown, 2),
                   stats::cell(b.mean_seconds * 1e3),
                   stats::cell(r.throughput().bits_per_sec / 1e9, 2)});
  }
  std::printf("%s", table.render().c_str());

  if (want_metrics) {
    report::write_metrics_file(cli.get_text("metrics"),
                               obs::Registry::global());
    std::printf("metrics written to %s\n", cli.get_text("metrics").c_str());
  }
  if (!cli.get_text("trace").empty()) {
    const std::string trace_path = cli.get_text("trace");
    const bool jsonl =
        trace_path.size() >= 6 &&
        trace_path.compare(trace_path.size() - 6, 6, ".jsonl") == 0;
    if (jsonl) {
      tracer.write_jsonl_file(trace_path);
    } else {
      tracer.write_chrome_json_file(trace_path);
    }
    std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                tracer.size());
  }
  return 0;
}
