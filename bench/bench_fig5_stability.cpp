// Fig. 5 — (a) global throughput over time and (b) evolution of a
// typical queue, SRPT vs fast BASRPT at 95% load.
//
// Expected shape (paper): the SRPT queue trace grows for the entire
// window while fast BASRPT's flattens; cumulative delivered bytes
// (global throughput) are higher under fast BASRPT.
#include <cstdio>
#include <optional>

#include "bench_common.hpp"
#include "run_session.hpp"
#include "report/csv.hpp"
#include "report/gnuplot.hpp"

int main(int argc, char** argv) {
  using namespace basrpt;

  CliParser cli("bench_fig5_stability",
                "paper Fig. 5: throughput and queue evolution");
  cli.real("load", 0.95, "per-host offered load")
      .real("v", 2500.0, "paper-equivalent BASRPT weight")
      .integer("trace-points", 16, "rows of the traces")
      .text("plot-dir", "", "if set, write fig5{a,b}.csv/.gp there");
  if (!bench::parse_common(cli, argc, argv)) {
    return 0;
  }
  const std::string plot_dir = bench::plot_dir(cli);
  const auto scale = bench::scale_from_cli(cli);
  bench::print_header("Fig. 5: throughput and queue length", scale);
  const double v_eff = bench::effective_v(cli.get_real("v"), scale);

  core::ExperimentConfig base = bench::base_config(scale, cli);
  base.load = cli.get_real("load");
  base.horizon = scale.stability_horizon;
  bench::RunSession session(cli, "fig5_stability", scale.fabric.hosts(),
                            base.horizon);
  session.apply(base);

  // Both results feed the trace tables after the sweep, so they are
  // retained (two cells — same liveness as the sequential code had).
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

  const auto rows = static_cast<std::size_t>(cli.get_integer("trace-points"));

  // (a) Throughput: delivered bytes per trace interval, as a rate.
  std::printf("\n--- Fig. 5(a): global throughput (Gbps) over time ---\n");
  stats::Table thpt({"time s", "srpt Gbps", "fast basrpt Gbps"});
  const auto& d1 = srpt.raw.delivered_trace;
  const auto& d2 = basrpt.raw.delivered_trace;
  const std::size_t n = std::min(d1.size(), d2.size());
  for (std::size_t r = 1; r < rows; ++r) {
    const std::size_t idx = (n - 1) * r / (rows - 1);
    const std::size_t prev = (n - 1) * (r - 1) / (rows - 1);
    const double dt = d1.points()[idx].t - d1.points()[prev].t;
    if (dt <= 0) {
      continue;
    }
    const double rate1 =
        (d1.points()[idx].value - d1.points()[prev].value) * 8.0 / dt / 1e9;
    const double rate2 =
        (d2.points()[idx].value - d2.points()[prev].value) * 8.0 / dt / 1e9;
    thpt.add_row({stats::cell(d1.points()[idx].t, 2), stats::cell(rate1, 1),
                  stats::cell(rate2, 1)});
  }
  bench::emit(thpt, cli);

  // (b) A typical queue: the largest ingress backlog trace.
  std::printf("\n--- Fig. 5(b): queue length evolution (MB) ---\n");
  stats::Table qlen({"time s", "srpt MB", "fast basrpt MB"});
  const auto& q1 = srpt.raw.backlog.max_ingress();
  const auto& q2 = basrpt.raw.backlog.max_ingress();
  const std::size_t m = std::min(q1.size(), q2.size());
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t idx = (m - 1) * r / (rows - 1);
    qlen.add_row({stats::cell(q1.points()[idx].t, 2),
                  stats::cell(q1.points()[idx].value / 1e6, 1),
                  stats::cell(q2.points()[idx].value / 1e6, 1)});
  }
  bench::emit(qlen, cli);

  if (const std::string& dir = plot_dir; !dir.empty()) {
    report::write_series_file(dir + "/fig5a.csv",
                              {{"srpt", &d1}, {"fast_basrpt", &d2}});
    report::GnuplotScript fig5a("Fig 5a: cumulative delivered bytes",
                                "time (s)", "bytes");
    fig5a.with_data(dir + "/fig5a.csv")
        .with_output(dir + "/fig5a.png")
        .add_series("srpt", 2)
        .add_series("fast basrpt", 3);
    fig5a.write_file(dir + "/fig5a.gp");

    report::write_series_file(dir + "/fig5b.csv",
                              {{"srpt", &q1}, {"fast_basrpt", &q2}});
    report::GnuplotScript fig5b("Fig 5b: queue length evolution",
                                "time (s)", "backlog (bytes)");
    fig5b.with_data(dir + "/fig5b.csv")
        .with_output(dir + "/fig5b.png")
        .add_series("srpt", 2)
        .add_series("fast basrpt", 3);
    fig5b.write_file(dir + "/fig5b.gp");
    std::printf("wrote %s/fig5{a,b}.{csv,gp}\n", dir.c_str());
  }

  const double gain =
      basrpt.throughput_gbps - srpt.throughput_gbps;
  std::printf("\ntotal throughput: srpt %.2f Gbps, fast basrpt %.2f Gbps "
              "(gain %+.2f Gbps)\n",
              srpt.throughput_gbps, basrpt.throughput_gbps, gain);
  std::printf("queue trend: srpt %s, fast basrpt %s\n",
              srpt.total_backlog_trend.growing ? "GROWING" : "stable",
              basrpt.total_backlog_trend.growing ? "GROWING" : "stable");
  std::printf(
      "paper: SRPT queue grows all the time; fast BASRPT stabilizes and "
      "delivers more bytes.\n");
  session.fault_report("srpt", srpt.raw.fault_stats);
  session.fault_report("fast basrpt", basrpt.raw.fault_stats);
  session.finish();
  return 0;
}
