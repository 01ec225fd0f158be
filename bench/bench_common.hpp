// Shared scaffolding for the per-figure bench harnesses.
//
// Every bench supports two scales:
//  * quick (default): 24-host fabric (4 racks x 6 hosts), horizons of a
//    few simulated seconds — runs on a laptop in minutes and shows the
//    same qualitative shapes;
//  * --full: the paper's setup — 144 hosts (12 x 12), 3 cores, and long
//    horizons. Expect hours of wall-clock.
//
// The paper's V values were tuned for N = 144; fast BASRPT's key is
// (V/N)·size − backlog, so quick-scale runs use core::scale_v to keep
// V/N — and hence the FCT/stability tradeoff — unchanged. Tables report
// the paper-equivalent V.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "fault/fault_plan.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/profiler.hpp"
#include "report/metrics_json.hpp"
#include "stats/table.hpp"
#include "switchsim/slotted_sim.hpp"

namespace basrpt::bench {

struct Scale {
  topo::FabricConfig fabric;
  SimTime stability_horizon;  // queue-evolution experiments (Figs 2, 5, 7)
  SimTime fct_horizon;        // FCT experiments (Table I, Figs 6, 8)
  bool full = false;
};

inline Scale make_scale(bool full) {
  Scale scale;
  scale.full = full;
  if (full) {
    scale.fabric = topo::paper_fabric();
    scale.stability_horizon = seconds(500.0);
    scale.fct_horizon = seconds(60.0);
  } else {
    scale.fabric = topo::small_fabric(4, 6, 3);
    scale.stability_horizon = seconds(8.0);
    // FCT statistics are also collected at 8 s: fast BASRPT's queue
    // plateau at quick scale takes ~5-6 s to reach, and FCTs sampled
    // before it are transient.
    scale.fct_horizon = seconds(8.0);
  }
  return scale;
}

/// Registers the flags every harness shares; returns after cli.parse so
/// callers can add their own flags *before* calling this. A malformed
/// command line (unknown / duplicate / unparsable option) prints the
/// error plus the usage text and exits 2 — sweep scripts fail fast with
/// an actionable message instead of an uncaught-exception abort.
inline bool parse_common(CliParser& cli, int argc, const char* const* argv) {
  cli.flag("full", false, "paper scale: 144 hosts, long horizons")
      .flag("csv", false, "emit CSV instead of the pretty table")
      .integer("seed", 1, "workload RNG seed")
      .real("horizon", 0.0, "override simulated seconds (0 = preset)")
      .text("metrics", "",
            "write run-health metrics here (.csv for CSV, else JSON)")
      .text("trace", "",
            "write flow-lifecycle trace here (.jsonl for JSONL, else "
            "Chrome trace-event JSON for Perfetto)")
      .real("heartbeat", 0.0,
            "log sim progress every N wall-seconds (0 = off)")
      .text("fault-plan", "",
            "inject faults: a basrpt-faults-v1 file, or 'random' for a "
            "seeded schedule (see --fault-seed)")
      .integer("fault-seed", 1, "seed for --fault-plan=random")
      .real("watchdog", 0.0,
            "abort with diagnostics after N wall-seconds of frozen "
            "sim-time (0 = off)")
      .flag("paranoid", false,
            "audit conservation ledgers at every sampling instant and "
            "every 1000th flow-level decision; abort on the first "
            "imbalance or difference")
      .text("checkpoint-dir", "",
            "write crash-safe checkpoints here (see docs/CHECKPOINT.md); "
            "empty disables")
      .integer("checkpoint-every", 0,
               "checkpoint cadence: completed cells for figure benches; "
               "slots inside a cell for slotted benches at --jobs 1, "
               "which also checkpoint every cell at its commit (0 = per "
               "cell / on interrupt)")
      .text("resume", "",
            "resume from a checkpoint file, or 'latest' to pick the "
            "newest in --checkpoint-dir")
      .integer("jobs", 1,
               "run sweep cells on N threads (0 = all cores); output is "
               "bit-identical at any value (see docs/PARALLEL.md)")
      .flag("profile", false,
            "time hot-path phases (decide, lifecycle, calendar, repack, "
            "drain, rate solve, checkpoint), count allocations, and print "
            "a breakdown "
            "(see docs/PERF.md)")
      .text("profile-out", "",
            "write the basrpt-profile-v1 JSON breakdown here (implies "
            "--profile)");
  try {
    return cli.parse(argc, argv);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(), cli.usage().c_str());
    std::exit(2);
  }
}

inline Scale scale_from_cli(const CliParser& cli) {
  Scale scale = make_scale(cli.get_flag("full"));
  const double horizon = cli.get_real("horizon");
  if (horizon > 0.0) {
    scale.stability_horizon = seconds(horizon);
    scale.fct_horizon = seconds(horizon);
  }
  return scale;
}

/// The bench's --plot-dir, created at start-up (empty when unset), so
/// that a bad path fails before the first cell runs rather than after
/// the whole sweep: exits 2 when the directory cannot be created.
inline std::string plot_dir(const CliParser& cli) {
  const std::string& dir = cli.get_text("plot-dir");
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !std::filesystem::is_directory(dir, ec)) {
      std::fprintf(stderr, "error: --plot-dir %s: %s\n", dir.c_str(),
                   ec ? ec.message().c_str() : "not a directory");
      std::exit(2);
    }
  }
  return dir;
}

inline core::ExperimentConfig base_config(const Scale& scale,
                                          const CliParser& cli) {
  core::ExperimentConfig config;
  config.fabric = scale.fabric;
  config.seed = static_cast<std::uint64_t>(cli.get_integer("seed"));
  return config;
}

/// Run-scoped observability wiring for the shared --metrics / --trace /
/// --heartbeat flags. Construct after parse_common (enables the global
/// obs registry when any output is requested), apply() to each config
/// about to run, and finish() once to write the artifacts. Everything it
/// wires is passive, so flag-bearing runs produce bit-identical tables.
/// Benches reach it through bench::RunSession (bench/run_session.hpp).
class ObsSession {
 public:
  explicit ObsSession(const CliParser& cli)
      : metrics_path_(cli.get_text("metrics")),
        trace_path_(cli.get_text("trace")),
        profile_path_(cli.get_text("profile-out")),
        profile_(cli.get_flag("profile") || !cli.get_text("profile-out").empty()),
        heartbeat_sec_(cli.get_real("heartbeat")) {
    // Metrics and --profile both read the global registry, and arming
    // observability is what arms the phase timers.
    if (!metrics_path_.empty() || profile_) {
      obs::set_enabled(true);
      obs::Registry::global().reset();  // this run's numbers only
    }
    if (profile_) {
      perf::set_alloc_counting(true);
      // Span export only matters when a trace will be written; skipping
      // it otherwise keeps --profile's memory footprint flat.
      perf::set_span_recording(!trace_path_.empty());
      window_start_ns_ = perf::now_ns();
      window_allocs_ = perf::alloc_total();
    }
    // Heartbeat lines log at INFO but the default threshold is WARN;
    // asking for --heartbeat implies wanting to see them. An explicit
    // BASRPT_LOG_LEVEL still wins.
    if (heartbeat_sec_ > 0.0 && std::getenv("BASRPT_LOG_LEVEL") == nullptr &&
        log_level() > LogLevel::kInfo) {
      set_log_level(LogLevel::kInfo);
    }
  }

  /// Points a simulator config at the session tracer and sets its
  /// heartbeat, where the config has one.
  template <typename Config>
  void apply(Config& config) {
    if (!trace_path_.empty()) {
      config.tracer = &tracer_;
    }
    if constexpr (requires { config.heartbeat_wall_sec; }) {
      if (heartbeat_sec_ > 0.0) {
        config.heartbeat_wall_sec = heartbeat_sec_;
      }
    }
  }

  /// For harnesses that call run_slotted / run_flow_sim directly.
  obs::FlowTracer* tracer_or_null() {
    return trace_path_.empty() ? nullptr : &tracer_;
  }

  /// Writes the artifacts. `status` other than "ok" marks a partial
  /// flush (signal / stall / config-parse failure): metrics carry a
  /// top-level "status" field and the trace a run_status marker, so
  /// downstream tooling never mistakes partial numbers for final ones.
  void finish(const std::string& status = "ok") {
    if (profile_) {
      const std::uint64_t window_ns = perf::now_ns() - window_start_ns_;
      const obs::Registry& registry = obs::Registry::global();
      perf::set_alloc_counting(false);
      perf::set_span_recording(false);
      std::uint64_t attributed = 0;
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        attributed += registry.phase(static_cast<obs::Phase>(p)).allocs;
      }
      const std::uint64_t allocs = perf::alloc_total() - window_allocs_;
      const std::uint64_t unattributed =
          allocs > attributed ? allocs - attributed : 0;
      if (!trace_path_.empty()) {
        perf::export_spans(registry, window_start_ns_, tracer_);
        if (registry.spans_dropped() > 0) {
          std::fprintf(stderr,
                       "profile: trace span cap reached; %llu later phase "
                       "spans not exported (aggregates still cover them)\n",
                       static_cast<unsigned long long>(
                           registry.spans_dropped()));
        }
      }
      if (!profile_path_.empty()) {
        std::ofstream out(profile_path_);
        BASRPT_REQUIRE(out.good(),
                       "cannot open profile output file: " + profile_path_);
        out << perf::profile_json(registry, window_ns, unattributed)
                   .serialize(2);
        std::printf("wrote profile to %s\n", profile_path_.c_str());
      }
      print_profile_breakdown(registry, window_ns, unattributed);
      profile_ = false;  // a second finish() must not report twice
    }
    if (!metrics_path_.empty()) {
      report::write_metrics_file(metrics_path_, obs::Registry::global(),
                                 status);
      std::printf("wrote metrics to %s\n", metrics_path_.c_str());
    }
    if (!trace_path_.empty()) {
      const bool jsonl =
          trace_path_.size() >= 6 &&
          trace_path_.compare(trace_path_.size() - 6, 6, ".jsonl") == 0;
      if (jsonl) {
        tracer_.write_jsonl_file(trace_path_, status);
      } else {
        tracer_.write_chrome_json_file(trace_path_, status);
      }
      std::printf("wrote %zu trace events to %s\n", tracer_.size(),
                  trace_path_.c_str());
    }
  }

 private:
  /// Under --jobs N the ns columns are summed over cells, so coverage
  /// (phase self time over the wall window) can approach N.
  static void print_profile_breakdown(const obs::Registry& registry,
                                      std::uint64_t window_ns,
                                      std::uint64_t unattributed) {
    std::fprintf(stderr, "profile: window %.3f s, coverage %.1f%%\n",
                 static_cast<double>(window_ns) * 1e-9,
                 window_ns > 0 ? static_cast<double>(registry.phase_self_ns()) /
                                     static_cast<double>(window_ns) * 100.0
                               : 0.0);
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      const obs::PhaseStats& s = registry.phase(phase);
      if (s.calls == 0) {
        continue;
      }
      std::fprintf(stderr,
                   "  %-17s %12llu calls  self %9.3f ms  p99 %8.0f ns  "
                   "allocs %llu\n",
                   obs::phase_name(phase),
                   static_cast<unsigned long long>(s.calls),
                   static_cast<double>(s.self_ns) * 1e-6,
                   s.ns.quantile(0.99),
                   static_cast<unsigned long long>(s.allocs));
    }
    if (unattributed > 0) {
      std::fprintf(stderr, "  %-17s %32s allocs %llu\n", "(unattributed)", "",
                   static_cast<unsigned long long>(unattributed));
    }
  }

  std::string metrics_path_;
  std::string trace_path_;
  std::string profile_path_;
  bool profile_ = false;
  std::uint64_t window_start_ns_ = 0;
  std::uint64_t window_allocs_ = 0;
  double heartbeat_sec_;
  obs::FlowTracer tracer_;
};

/// Run-scoped robustness wiring for the shared --fault-plan /
/// --fault-seed / --watchdog / --paranoid flags. Construct after
/// parse_common with the fabric size and the horizon the bench will
/// simulate, in `unit` ("s", or "slots" for slotted benches: the slotted
/// model's time unit); random plans draw their events over it. Then
/// apply() to each config about to run.
/// With no flags set, apply() is a no-op and outputs stay bit-identical.
/// Benches reach it through bench::RunSession.
class FaultSession {
 public:
  /// `obs` (optional): flushed with the "interrupted" marker when the
  /// plan fails to parse, so a sweep that dies on a bad fault file still
  /// leaves honestly-labelled partial artifacts behind.
  FaultSession(const CliParser& cli, std::int32_t hosts, double horizon,
               const char* unit, ObsSession* obs = nullptr)
      : watchdog_wall_sec_(cli.get_real("watchdog")),
        paranoid_(cli.get_flag("paranoid")) {
    const std::string& spec = cli.get_text("fault-plan");
    // Plan loading fails like a bad flag would: a clear message and exit
    // 2, not an uncaught ParseError terminating the process.
    try {
      if (spec == "random") {
        fault::RandomFaultSpec random;
        random.ports = hosts;
        random.horizon = horizon;
        plan_ = fault::FaultPlan::randomized(
            random,
            static_cast<std::uint64_t>(cli.get_integer("fault-seed")));
      } else if (!spec.empty()) {
        plan_ = fault::FaultPlan::from_file(spec);
      }
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "error: --fault-plan %s: %s\n", spec.c_str(),
                   e.what());
      if (obs != nullptr) {
        obs->finish("interrupted");
      }
      std::exit(2);
    }
    if (!plan_.empty()) {
      std::printf("fault plan: %zu events over [0, %.3g] %s\n", plan_.size(),
                  plan_.span(), unit);
    }
  }

  bool active() const { return !plan_.empty(); }
  const fault::FaultPlan& plan() const { return plan_; }

  /// Wires the plan, the watchdog and --paranoid into a simulator
  /// config (any of the four; see RunSession::apply).
  template <typename Config>
  void apply(Config& config) const {
    if (active()) {
      config.fault_plan = &plan_;
    }
    if (watchdog_wall_sec_ > 0.0) {
      config.watchdog.stall_wall_sec = watchdog_wall_sec_;
    }
    if (paranoid_) {
      config.paranoid = true;
    }
  }

  /// Prints the fault counters of a finished run (omitted when inactive).
  void report(const char* label, const fault::FaultStats& stats) const {
    if (!active()) {
      return;
    }
    std::printf("faults[%s]: %lld transitions, %lld decisions suppressed, "
                "%lld flows requeued, %lld candidates masked\n",
                label, static_cast<long long>(stats.transitions),
                static_cast<long long>(stats.decisions_suppressed),
                static_cast<long long>(stats.flows_requeued),
                static_cast<long long>(stats.candidates_masked));
  }

 private:
  fault::FaultPlan plan_;
  double watchdog_wall_sec_;
  bool paranoid_;
};

inline void emit(const stats::Table& table, const CliParser& cli) {
  std::printf("%s",
              cli.get_flag("csv") ? table.render_csv().c_str()
                                  : table.render().c_str());
}

/// Paper-equivalent V → effective V for this fabric.
inline double effective_v(double paper_v, const Scale& scale) {
  return core::scale_v(paper_v, scale.fabric.hosts());
}

inline void print_header(const std::string& what, const Scale& scale) {
  std::printf("=== %s ===\n", what.c_str());
  std::printf("fabric: %d hosts (%d racks x %d), %s mode\n",
              scale.fabric.hosts(), scale.fabric.racks,
              scale.fabric.hosts_per_rack, scale.full ? "FULL" : "quick");
}

}  // namespace basrpt::bench
