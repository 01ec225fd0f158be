// Event-driven flow-level simulator on the multi-rooted tree fabric —
// the paper's evaluation vehicle (Sec. V-A), re-implemented from its
// description: a centralized scheduler recomputes the serving flow set
// on every flow arrival and every flow completion; selected flows
// transmit as fluid at the max-min fair rates the topology admits
// (selected sets form matchings, so with the paper's capacities each
// selected flow gets the full edge rate and the abstraction's crossbar
// behaviour emerges rather than being assumed).
//
// Scheduler keys are fed in packets (bytes / packet_bytes) so the
// paper's V values (1000–10000) apply unchanged.
#pragma once

#include <cstdint>

#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/watchdog.hpp"
#include "obs/trace.hpp"
#include "queueing/backlog_recorder.hpp"
#include "queueing/voq.hpp"
#include "sched/scheduler.hpp"
#include "stats/fct.hpp"
#include "topo/topology.hpp"
#include "workload/traffic.hpp"

namespace basrpt::flowsim {

using queueing::FlowId;
using queueing::PortId;

/// How the fabric serves the queued flows.
enum class ServiceModel {
  /// The paper's model: a centralized scheduler picks a crossbar
  /// matching; selected flows transmit at the max-min rates.
  kMatchingScheduler,
  /// TCP-like reference: *every* active flow transmits concurrently at
  /// the max-min fair rates the topology admits (no matching, no
  /// scheduler). The classic fair-sharing baseline of the FCT
  /// literature — stable, but size-oblivious.
  kFairSharing,
};

struct FlowSimConfig {
  topo::FabricConfig fabric = topo::small_fabric();
  ServiceModel service_model = ServiceModel::kMatchingScheduler;
  SimTime horizon = seconds(5.0);
  SimTime sample_every = milliseconds(10.0);
  double packet_bytes = 1500.0;  // packet unit for scheduler keys
  PortId watched_src = 0;        // VOQ traced as "queue length at a port"
  PortId watched_dst = 1;
  /// Test-only checks per event: the decision is a crossbar matching,
  /// and edge-bound rates equal route_into + solve_into's bit for bit.
  bool validate_decisions = false;
  /// Minimum gap between decision recomputations triggered by arrivals.
  /// The paper updates on *every* arrival and completion, which is the
  /// cost Sec. IV-C worries about; a positive gap batches arrival-driven
  /// updates (completions always reschedule, so the fabric stays
  /// work-conserving). bench_ablation_batching measures the FCT price.
  SimTime min_reschedule_gap{0.0};
  /// Optional flow-lifecycle tracer (arrival / first-service /
  /// preemption / completion). Purely passive; null disables.
  obs::FlowTracer* tracer = nullptr;
  /// Logs sim-time progress and event rate every N wall-seconds during
  /// long runs (<= 0 disables). See obs::Heartbeat.
  double heartbeat_wall_sec = 0.0;
  /// Fault schedule replayed during the run (non-owning; must outlive
  /// the run). Degrades clamp flow rates, blackouts additionally mask
  /// the port's VOQs from scheduling, drop-decisions windows freeze the
  /// serving set, rearrival bursts re-admit parked flows. Null or an
  /// empty plan is strictly pay-for-use: the run is bit-identical to one
  /// without the fault layer.
  const fault::FaultPlan* fault_plan = nullptr;
  /// No-progress stall watchdog (see fault::Watchdog); default-disabled.
  fault::WatchdogConfig watchdog{};
  /// Conservation auditing at every sampling instant (--paranoid):
  /// admitted bytes/flows must equal in-flight + completed, or the run
  /// aborts with fault::InvariantError naming the violated ledger entry.
  bool paranoid = false;
};

struct FlowSimResult {
  stats::FctAggregator fct;
  queueing::BacklogRecorder backlog;  // bytes
  stats::TimeSeries delivered_trace;  // cumulative delivered bytes(t)
  Bytes delivered{};                  // bytes that left the fabric
  Bytes bytes_arrived{};              // total offered bytes
  std::int64_t flows_arrived = 0;
  std::int64_t flows_completed = 0;
  std::int64_t flows_left = 0;  // still queued at the horizon
  Bytes bytes_left{};
  SimTime horizon{};
  std::uint64_t scheduler_invocations = 0;
  fault::FaultStats fault_stats;  // zeros when no plan was attached

  FlowSimResult(PortId watched_src, PortId watched_dst)
      : backlog(watched_src, watched_dst) {}

  /// Global throughput: bytes leaving the fabric over the horizon.
  /// A zero horizon (result inspected before/without a run) yields 0,
  /// not inf/NaN.
  Rate throughput() const {
    if (horizon.seconds <= 0.0) {
      return Rate{0.0};
    }
    return Rate{static_cast<double>(delivered.count) * 8.0 /
                horizon.seconds};
  }
};

/// Runs the simulation until `config.horizon`. The traffic source is
/// drained lazily; arrivals after the horizon never materialize.
FlowSimResult run_flow_sim(const FlowSimConfig& config,
                           sched::Scheduler& scheduler,
                           workload::TrafficSource& traffic);

}  // namespace basrpt::flowsim
