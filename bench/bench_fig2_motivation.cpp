// Fig. 2 — queue length at a port under SRPT vs a backlog-aware
// threshold strategy, on the fat-tree flow-level simulator at ~92% of
// link capacity per port.
//
// Expected shape (paper): the SRPT trace keeps growing for the whole
// window although every port's offered load is under capacity; the
// threshold strategy's trace stabilizes at a finite level.
#include <cstdio>
#include <optional>

#include "bench_common.hpp"
#include "run_session.hpp"
#include "report/csv.hpp"
#include "report/gnuplot.hpp"

int main(int argc, char** argv) {
  using namespace basrpt;

  CliParser cli("bench_fig2_motivation",
                "paper Fig. 2: SRPT vs backlog-threshold queue evolution");
  cli.real("load", 0.95, "per-host offered load (offered caps mirror the paper's ~9.2-9.5 Gbps)")
      .real("threshold", 2000.0,
            "promotion threshold in packets (3 MB at 1500 B)")
      .integer("trace-points", 16, "rows of the queue-length trace")
      .text("plot-dir", "", "if set, write fig2.csv + fig2.gp there");
  if (!bench::parse_common(cli, argc, argv)) {
    return 0;
  }
  const std::string plot_dir = bench::plot_dir(cli);
  const auto scale = bench::scale_from_cli(cli);
  bench::print_header("Fig. 2: queue length at a port", scale);

  core::ExperimentConfig base = bench::base_config(scale, cli);
  base.load = cli.get_real("load");
  base.horizon = scale.stability_horizon;
  bench::RunSession session(cli, "fig2_motivation", scale.fabric.hosts(),
                            base.horizon);
  session.apply(base);

  // Both traces feed the table/plot after the sweep, so the results are
  // retained (two cells — same liveness as the sequential code had).
  std::optional<core::ExperimentResult> srpt;
  std::optional<core::ExperimentResult> threshold;

  exec::Sweep sweep;
  base.scheduler = sched::SchedulerSpec::srpt();
  sweep.add("srpt", base,
            [&](const core::ExperimentResult& r) { srpt = r; });
  base.scheduler =
      sched::SchedulerSpec::threshold_srpt(cli.get_real("threshold"));
  sweep.add("threshold", base,
            [&](const core::ExperimentResult& r) { threshold = r; });
  session.run_sweep(sweep);

  // The paper plots the backlog of one server; the per-server average of
  // the total fabric backlog is the same signal with the sampling noise
  // of "which port is worst right now" averaged out.
  const auto& srpt_trace = srpt->raw.backlog.total();
  const auto& thr_trace = threshold->raw.backlog.total();
  const double hosts = static_cast<double>(scale.fabric.hosts());

  stats::Table table({"time s", "srpt qlen MB/host", "threshold qlen MB/host"});
  const auto rows = static_cast<std::size_t>(cli.get_integer("trace-points"));
  const std::size_t n = std::min(srpt_trace.size(), thr_trace.size());
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t idx = (n - 1) * r / (rows - 1);
    table.add_row(
        {stats::cell(srpt_trace.points()[idx].t, 2),
         stats::cell(srpt_trace.points()[idx].value / 1e6 / hosts, 1),
         stats::cell(thr_trace.points()[idx].value / 1e6 / hosts, 1)});
  }
  bench::emit(table, cli);

  if (const std::string& dir = plot_dir; !dir.empty()) {
    report::write_series_file(dir + "/fig2.csv",
                              {{"srpt", &srpt_trace},
                               {"threshold", &thr_trace}});
    report::GnuplotScript script("Fig 2: queue length at a port",
                                 "time (s)", "total backlog (bytes)");
    script.with_data(dir + "/fig2.csv")
        .with_output(dir + "/fig2.png")
        .add_series("srpt", 2)
        .add_series("threshold-srpt", 3);
    script.write_file(dir + "/fig2.gp");
    std::printf("wrote %s/fig2.{csv,gp}\n", dir.c_str());
  }

  const auto srpt_verdict = stats::classify_trend(srpt_trace);
  const auto thr_verdict = stats::classify_trend(thr_trace);
  std::printf("\nsrpt:      %s (slope %.3g MB/s)\n",
              srpt_verdict.growing ? "GROWING — unstable" : "stable",
              srpt_verdict.slope / 1e6);
  std::printf("threshold: %s (slope %.3g MB/s)\n",
              thr_verdict.growing ? "GROWING — unstable" : "stable",
              thr_verdict.slope / 1e6);
  std::printf(
      "paper: SRPT keeps growing for the whole window; the backlog-aware"
      " strategy stabilizes.\n");
  session.fault_report("srpt", srpt->raw.fault_stats);
  session.fault_report("threshold srpt", threshold->raw.fault_stats);
  session.finish();
  return 0;
}
