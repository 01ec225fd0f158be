#include "core/experiment.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sched/audited.hpp"
#include "workload/generators.hpp"

namespace basrpt::core {

ExperimentResult run_experiment(const ExperimentConfig& config) {
  BASRPT_REQUIRE(config.load > 0.0 && config.load < 1.0,
                 "load must be in (0, 1)");

  sched::SchedulerPtr scheduler = sched::make_scheduler(config.scheduler);
  if (config.paranoid) {
    scheduler = std::make_unique<sched::AuditedScheduler>(
        std::move(scheduler), sched::make_scheduler(config.scheduler));
  }

  Rng rng(config.seed);
  auto traffic = workload::paper_mix(
      config.load, config.query_share, config.fabric.racks,
      config.fabric.hosts_per_rack, config.fabric.host_link, config.horizon,
      rng, config.burstiness_cv2, config.governor_headroom);

  flowsim::FlowSimConfig sim_config;
  sim_config.fabric = config.fabric;
  sim_config.horizon = config.horizon;
  sim_config.sample_every = config.sample_every;
  sim_config.packet_bytes = config.packet_bytes;
  sim_config.watched_src = config.watched_src;
  sim_config.watched_dst = config.watched_dst;
  sim_config.min_reschedule_gap = config.min_reschedule_gap;
  sim_config.service_model = config.service_model;
  sim_config.tracer = config.tracer;
  sim_config.heartbeat_wall_sec = config.heartbeat_wall_sec;
  sim_config.fault_plan = config.fault_plan;
  sim_config.watchdog = config.watchdog;
  sim_config.paranoid = config.paranoid;

  auto sim = flowsim::run_flow_sim(sim_config, *scheduler, *traffic);

  ExperimentResult result(config.watched_src, config.watched_dst);
  result.scheduler_name =
      config.service_model == flowsim::ServiceModel::kFairSharing
          ? "fair-sharing"
          : scheduler->name();

  const auto query = sim.fct.summary(stats::FlowClass::kQuery);
  const auto background = sim.fct.summary(stats::FlowClass::kBackground);
  result.query_avg_ms = query.mean_seconds * 1e3;
  result.query_p99_ms = query.p99_seconds * 1e3;
  result.background_avg_ms = background.mean_seconds * 1e3;
  result.background_p99_ms = background.p99_seconds * 1e3;
  result.query_mean_slowdown = query.mean_slowdown;
  result.background_mean_slowdown = background.mean_slowdown;

  result.throughput_gbps = sim.throughput().bits_per_sec / 1e9;

  result.watched_trend = stats::classify_trend(sim.backlog.watched_voq());
  result.total_backlog_trend = stats::classify_trend(sim.backlog.total());
  if (!sim.backlog.watched_voq().empty()) {
    result.watched_tail_mean_bytes = sim.backlog.watched_voq().tail_mean();
  }
  if (!sim.backlog.total().empty()) {
    result.total_tail_mean_bytes = sim.backlog.total().tail_mean();
  }

  result.flows_arrived = sim.flows_arrived;
  result.flows_completed = sim.flows_completed;
  result.flows_left = sim.flows_left;
  result.bytes_left_gb = static_cast<double>(sim.bytes_left.count) / 1e9;

  result.raw = std::move(sim);
  return result;
}

double scale_v(double paper_v, std::int32_t hosts) {
  BASRPT_REQUIRE(hosts >= 1, "fabric needs hosts");
  return paper_v * static_cast<double>(hosts) / 144.0;
}

std::string render_summary(const ExperimentResult& r) {
  std::ostringstream out;
  out << "scheduler:            " << r.scheduler_name << "\n"
      << "query FCT avg/p99:    " << r.query_avg_ms << " / " << r.query_p99_ms
      << " ms\n"
      << "background avg/p99:   " << r.background_avg_ms << " / "
      << r.background_p99_ms << " ms\n"
      << "throughput:           " << r.throughput_gbps << " Gbps\n"
      << "flows (arrived/completed/left): " << r.flows_arrived << " / "
      << r.flows_completed << " / " << r.flows_left << "\n"
      << "backlog left:         " << r.bytes_left_gb << " GB\n"
      << "total backlog trend:  "
      << (r.total_backlog_trend.growing ? "GROWING (unstable)" : "stable")
      << " (slope " << r.total_backlog_trend.slope << " B/s, tail/mid "
      << r.total_backlog_trend.growth_ratio << ")\n"
      << "watched VOQ trend:    "
      << (r.watched_trend.growing ? "GROWING (unstable)" : "stable")
      << " (tail mean " << r.watched_tail_mean_bytes << " B)\n";
  const fault::FaultStats& f = r.raw.fault_stats;
  if (f.transitions > 0 || f.flows_requeued > 0 ||
      f.decisions_suppressed > 0) {
    out << "faults injected:      " << f.transitions << " transitions, "
        << f.decisions_suppressed << " decisions suppressed, "
        << f.flows_requeued << " flows requeued, " << f.candidates_masked
        << " candidates masked\n";
  }
  return out.str();
}

}  // namespace basrpt::core
