// Public experiment API — the one-stop entry point for users.
//
// An Experiment bundles the paper's evaluation setup: a multi-rooted
// tree fabric, the two-class workload (fabric-wide 20 KB queries +
// rack-local heavy-tailed background flows) at a target per-host load,
// and a scheduler spec. run() produces the paper's metrics: per-class
// average / 99th-percentile FCT, global throughput, and queue-length
// traces with a programmatic stability verdict.
//
// Quickstart:
//   basrpt::core::ExperimentConfig config;
//   config.scheduler = basrpt::sched::SchedulerSpec::fast_basrpt(2500);
//   config.load = 0.95;
//   auto result = basrpt::core::run_experiment(config);
//   std::cout << basrpt::core::render_summary(result);
#pragma once

#include <cstdint>
#include <string>

#include "flowsim/flow_sim.hpp"
#include "obs/trace.hpp"
#include "sched/factory.hpp"
#include "stats/timeseries.hpp"
#include "topo/topology.hpp"

namespace basrpt::core {

struct ExperimentConfig {
  topo::FabricConfig fabric = topo::small_fabric();
  sched::SchedulerSpec scheduler = sched::SchedulerSpec::srpt();
  /// kFairSharing ignores `scheduler` and runs the TCP-like reference.
  flowsim::ServiceModel service_model =
      flowsim::ServiceModel::kMatchingScheduler;

  double load = 0.95;          // per-host offered load, fraction of link
  double query_share = 0.10;   // fraction of the load carried by queries
  double burstiness_cv2 = 1.0; // inter-arrival CV^2 (1 = Poisson)
  /// Per-port offered-load cap headroom over `load` (the paper's
  /// controlled-volume methodology); negative disables the governor and
  /// lets realized per-port loads fluctuate freely.
  double governor_headroom = 0.03;
  SimTime horizon = seconds(5.0);
  SimTime sample_every = milliseconds(10.0);
  std::uint64_t seed = 1;
  double packet_bytes = 1500.0;
  /// Batches arrival-driven decision updates (0 = the paper's update-on-
  /// every-event behaviour); see flowsim::FlowSimConfig.
  SimTime min_reschedule_gap{0.0};

  // VOQ whose trace reproduces "queue length at a port"; host 0 → host 1
  // is a rack-local (background-carrying) pair in every fabric.
  flowsim::PortId watched_src = 0;
  flowsim::PortId watched_dst = 1;

  // ---- Observability (all passive: results stay bit-identical) ----
  /// Flow-lifecycle tracer; null disables. See obs::FlowTracer.
  obs::FlowTracer* tracer = nullptr;
  /// Logs sim progress every N wall-seconds (<= 0 disables).
  double heartbeat_wall_sec = 0.0;

  // ---- Robustness (see docs/FAULTS.md) ----
  /// Fault schedule replayed during the run (non-owning; must outlive
  /// run_experiment). Null or empty is strictly pay-for-use.
  const fault::FaultPlan* fault_plan = nullptr;
  /// No-progress stall watchdog; default-disabled.
  fault::WatchdogConfig watchdog{};
  /// Conservation auditing at every sampling instant, and every
  /// 1,000th decision decided again from scratch (sched::AuditedScheduler)
  /// (--paranoid); the run aborts with fault::InvariantError if the books
  /// stop balancing or a decision differs.
  bool paranoid = false;
};

/// The paper's headline numbers for one run, plus stability verdicts.
struct ExperimentResult {
  std::string scheduler_name;

  // Table-I metrics (milliseconds).
  double query_avg_ms = 0.0;
  double query_p99_ms = 0.0;
  double background_avg_ms = 0.0;
  double background_p99_ms = 0.0;

  // Normalized FCT (slowdown = FCT / alone-at-line-rate FCT).
  double query_mean_slowdown = 0.0;
  double background_mean_slowdown = 0.0;

  // Figure-5a metric.
  double throughput_gbps = 0.0;

  // Figure-5b metrics: the watched VOQ trace and its trend verdict.
  stats::TrendVerdict watched_trend;
  stats::TrendVerdict total_backlog_trend;
  double watched_tail_mean_bytes = 0.0;
  double total_tail_mean_bytes = 0.0;

  std::int64_t flows_arrived = 0;
  std::int64_t flows_completed = 0;
  std::int64_t flows_left = 0;
  double bytes_left_gb = 0.0;

  /// Full simulator output (traces, aggregates) for custom analysis.
  flowsim::FlowSimResult raw;

  ExperimentResult(flowsim::PortId ws, flowsim::PortId wd) : raw(ws, wd) {}
};

/// Runs one experiment; deterministic in (config, seed).
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Scales a paper-quoted V (which the paper tuned on a 144-host fabric)
/// to a fabric with `hosts` ports. Fast BASRPT's selection key is
/// (V/N)·size − backlog, so holding V/N constant across fabric sizes
/// preserves the intended FCT-vs-backlog tradeoff.
double scale_v(double paper_v, std::int32_t hosts);

/// Human-readable multi-line summary.
std::string render_summary(const ExperimentResult& result);

}  // namespace basrpt::core
