// Fault resilience: SRPT vs fast BASRPT under a degraded-link schedule.
//
// The paper's stability argument (Theorem 1) assumes a healthy fabric.
// This harness injects a deterministic fault schedule — link degradation,
// transient port blackouts, control-decision loss, and burst re-arrivals
// of preempted flows — and compares how the two schedulers absorb it.
// The expected shape mirrors the healthy-fabric story, amplified: SRPT
// parks long flows behind short ones, so capacity lost to faults turns
// directly into unbounded backlog growth, while fast BASRPT's backlog
// term keeps draining the VOQs the faults inflated and the queue
// plateaus again after recovery.
//
// The default schedule is scripted (not seeded) so the A/B comparison is
// stable across machines; --fault-plan overrides it with a file or a
// seeded random schedule, exactly as on the figure benches.
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "run_session.hpp"
#include "report/csv.hpp"

namespace {

/// Scripted degraded-fabric schedule over `horizon` seconds on a
/// `hosts`-port fabric: an early long degrade on two rack-local ports,
/// a mid-run blackout, a control-loss window, and a re-arrival burst.
basrpt::fault::FaultPlan scripted_plan(std::int32_t hosts, double horizon) {
  using basrpt::fault::FaultEvent;
  using basrpt::fault::FaultKind;
  basrpt::fault::FaultPlan plan;
  const auto at = [horizon](double frac) { return frac * horizon; };
  FaultEvent degrade;
  degrade.kind = FaultKind::kDegrade;
  degrade.start = at(0.10);
  degrade.duration = at(0.40);
  degrade.port = 0 % hosts;
  degrade.factor = 0.35;
  plan.add(degrade);
  degrade.port = 1 % hosts;
  degrade.factor = 0.5;
  plan.add(degrade);
  FaultEvent blackout;
  blackout.kind = FaultKind::kBlackout;
  blackout.start = at(0.55);
  blackout.duration = at(0.10);
  blackout.port = 2 % hosts;
  plan.add(blackout);
  FaultEvent drop;
  drop.kind = FaultKind::kDropDecisions;
  drop.start = at(0.30);
  drop.duration = at(0.05);
  plan.add(drop);
  FaultEvent rearrive;
  rearrive.kind = FaultKind::kRearrival;
  rearrive.start = at(0.70);
  rearrive.count = 64;
  plan.add(rearrive);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace basrpt;

  CliParser cli("bench_fault_resilience",
                "SRPT vs fast BASRPT backlog/FCT under injected faults");
  cli.real("load", 0.95, "per-host offered load")
      .real("v", 2500.0, "paper-equivalent BASRPT weight")
      .integer("trace-points", 16, "rows of the backlog trace")
      .text("plot-dir", "", "if set, write fault_backlog.csv there");
  if (!bench::parse_common(cli, argc, argv)) {
    return 0;
  }
  const std::string plot_dir = bench::plot_dir(cli);
  const auto scale = bench::scale_from_cli(cli);
  bench::print_header("Fault resilience: backlog and FCT under faults",
                      scale);
  const double v_eff = bench::effective_v(cli.get_real("v"), scale);

  bench::RunSession session(cli, "fault_resilience", scale.fabric.hosts(),
                            scale.stability_horizon);
  const fault::FaultPlan plan =
      session.fault_active()
          ? session.fault_plan()
          : scripted_plan(scale.fabric.hosts(),
                          scale.stability_horizon.seconds);
  std::printf("injecting %zu fault events over [0, %.3g] s\n", plan.size(),
              plan.span());

  core::ExperimentConfig base = bench::base_config(scale, cli);
  base.load = cli.get_real("load");
  base.horizon = scale.stability_horizon;
  session.apply(base);  // arms --watchdog even with the scripted plan
  base.fault_plan = &plan;

  // Both results feed the tables after the sweep (two cells — same
  // liveness as the sequential code had).
  std::optional<core::ExperimentResult> srpt_r;
  std::optional<core::ExperimentResult> basrpt_r;

  exec::Sweep sweep;
  base.scheduler = sched::SchedulerSpec::srpt();
  sweep.add("srpt", base,
            [&](const core::ExperimentResult& r) { srpt_r = r; });
  base.scheduler = sched::SchedulerSpec::fast_basrpt(v_eff);
  sweep.add("fast_basrpt", base,
            [&](const core::ExperimentResult& r) { basrpt_r = r; });
  session.run_sweep(sweep);
  const core::ExperimentResult& srpt = *srpt_r;
  const core::ExperimentResult& basrpt = *basrpt_r;

  std::printf("\n--- total backlog evolution under faults (MB) ---\n");
  stats::Table qlen({"time s", "srpt MB", "fast basrpt MB"});
  const auto& q1 = srpt.raw.backlog.total();
  const auto& q2 = basrpt.raw.backlog.total();
  const std::size_t m = std::min(q1.size(), q2.size());
  const auto rows = static_cast<std::size_t>(cli.get_integer("trace-points"));
  for (std::size_t r = 0; r < rows && m > 1; ++r) {
    const std::size_t idx = (m - 1) * r / (rows - 1);
    qlen.add_row({stats::cell(q1.points()[idx].t, 2),
                  stats::cell(q1.points()[idx].value / 1e6, 2),
                  stats::cell(q2.points()[idx].value / 1e6, 2)});
  }
  bench::emit(qlen, cli);

  std::printf("\n--- FCT under faults ---\n");
  stats::Table fct({"metric", "srpt", "fast basrpt"});
  fct.add_row({"query avg ms", stats::cell(srpt.query_avg_ms, 3),
               stats::cell(basrpt.query_avg_ms, 3)});
  fct.add_row({"query p99 ms", stats::cell(srpt.query_p99_ms, 3),
               stats::cell(basrpt.query_p99_ms, 3)});
  fct.add_row({"background avg ms", stats::cell(srpt.background_avg_ms, 3),
               stats::cell(basrpt.background_avg_ms, 3)});
  fct.add_row({"throughput Gbps", stats::cell(srpt.throughput_gbps, 2),
               stats::cell(basrpt.throughput_gbps, 2)});
  bench::emit(fct, cli);

  if (const std::string& dir = plot_dir; !dir.empty()) {
    report::write_series_file(dir + "/fault_backlog.csv",
                              {{"srpt", &q1}, {"fast_basrpt", &q2}});
    std::printf("wrote %s/fault_backlog.csv\n", dir.c_str());
  }

  const fault::FaultStats& f1 = srpt.raw.fault_stats;
  const fault::FaultStats& f2 = basrpt.raw.fault_stats;
  std::printf("\nfaults[srpt]: %lld transitions, %lld suppressed, %lld "
              "requeued, %lld masked\n",
              static_cast<long long>(f1.transitions),
              static_cast<long long>(f1.decisions_suppressed),
              static_cast<long long>(f1.flows_requeued),
              static_cast<long long>(f1.candidates_masked));
  std::printf("faults[fast basrpt]: %lld transitions, %lld suppressed, "
              "%lld requeued, %lld masked\n",
              static_cast<long long>(f2.transitions),
              static_cast<long long>(f2.decisions_suppressed),
              static_cast<long long>(f2.flows_requeued),
              static_cast<long long>(f2.candidates_masked));
  std::printf("backlog trend under faults: srpt %s, fast basrpt %s\n",
              srpt.total_backlog_trend.growing ? "GROWING" : "stable",
              basrpt.total_backlog_trend.growing ? "GROWING" : "stable");
  std::printf("tail-mean backlog: srpt %.2f MB, fast basrpt %.2f MB\n",
              srpt.total_tail_mean_bytes / 1e6,
              basrpt.total_tail_mean_bytes / 1e6);
  session.finish();
  return 0;
}
