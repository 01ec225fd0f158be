// bench::RunSession — the single session object behind every bench
// that takes the shared flags. It owns the ObsSession, FaultSession and
// CheckpointSession; benches construct none of them directly.
//
// One construction order, one finish():
//
//   CliParser cli("bench_fig6_loads", "...");
//   cli.real("gap", 0.0, "...");                 // bench-own flags first
//   if (!bench::parse_common(cli, argc, argv)) return 0;
//   bench::Scale scale = bench::scale_from_cli(cli);
//   bench::RunSession session(cli, "fig6_loads", scale.fabric.hosts(),
//                             scale.fct_horizon);
//   exec::Sweep sweep;
//   ... session.apply(config); sweep.add(label, config, commit); ...
//   session.run_sweep(sweep);                    // honors --jobs N
//   bench::emit(table, cli);
//   session.finish();
//
// Every sweep runs through one loop, exec::run_cells: at --jobs 1 it
// computes and commits each cell on this thread, otherwise the cells
// run on an exec::CellPool with per-cell metric/tracer shards (phase
// timings included, so --profile works at any --jobs). run_sweep first
// lets the CheckpointSession replay the stored prefix; commit callbacks,
// checkpoint writes and progress lines then land in submission order
// at any job count (see docs/PARALLEL.md for the determinism contract).
// One catch around the loop turns an interrupt or a watchdog stall
// into a checkpoint, an "interrupted" flush and exit 128+sig or 3.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "checkpoint_session.hpp"
#include "common/interrupt.hpp"
#include "exec/cell_pool.hpp"
#include "exec/sweep.hpp"
#include "fault/watchdog.hpp"

namespace basrpt::bench {

class RunSession {
 public:
  /// Whether this bench's work is organized in checkpointable cells.
  /// kNone benches (microbench-style, no resumable units) reject the
  /// checkpoint flags outright instead of silently ignoring them.
  enum class Checkpointing { kCells, kNone };

  /// Construct once, directly after parse_common. `fault_ports` /
  /// `fault_horizon` size a --fault-plan=random schedule: pass the
  /// fabric's host count and the swept horizon.
  RunSession(const CliParser& cli, std::string bench_name,
             std::int32_t fault_ports, SimTime fault_horizon,
             Checkpointing checkpointing = Checkpointing::kCells)
      : RunSession(cli, std::move(bench_name), fault_ports,
                   fault_horizon.seconds, "s", checkpointing) {}

  /// Slotted benches: their port count and their horizon in slots, the
  /// unit their fault plans are in.
  RunSession(const CliParser& cli, std::string bench_name,
             std::int32_t fault_ports, switchsim::Slot fault_horizon,
             Checkpointing checkpointing = Checkpointing::kCells)
      : RunSession(cli, std::move(bench_name), fault_ports,
                   static_cast<double>(fault_horizon), "slots",
                   checkpointing) {}

  /// Wires the shared flags into one simulator config — a
  /// core::ExperimentConfig, flowsim::FlowSimConfig,
  /// switchsim::SlottedConfig or pktsim::PacketSimConfig: --trace and
  /// --heartbeat (where the config has one), --fault-plan, --watchdog
  /// and --paranoid. All passive. A cell computed under run_cells sets
  /// its own trace shard after this call.
  template <typename Config>
  void apply(Config& config) {
    obs_.apply(config);
    faults_.apply(config);
  }

  /// The --fault-plan in effect (empty without the flag), and the
  /// per-run fault counter line.
  bool fault_active() const { return faults_.active(); }
  const fault::FaultPlan& fault_plan() const { return faults_.plan(); }
  void fault_report(const char* label, const fault::FaultStats& stats) const {
    faults_.report(label, stats);
  }

  /// Serialized cell-completion progress line (stderr). At --jobs 1 the
  /// bytes are identical to a bare fprintf; under parallelism lines
  /// never interleave with worker-side logging.
  __attribute__((format(printf, 2, 3))) void progress(const char* format,
                                                      ...) {
    std::va_list args;
    va_start(args, format);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    exec::progress("%s", buf);
  }

  /// Runs every declared cell, honoring --jobs and --resume: the
  /// checkpoint layer replays the stored prefix, then the remaining
  /// cells run through run_cells, and each commit records its cell in
  /// the checkpoint before the bench's callback runs.
  void run_sweep(exec::Sweep& sweep) {
    const std::size_t first = ckpt_ ? ckpt_->replay(sweep, jobs_) : 0;
    std::vector<std::optional<exec::CellOutput>> outputs(sweep.size());
    run_loop(
        sweep.size() - first,
        [&](std::size_t k, obs::FlowTracer* tracer) {
          outputs[first + k] = sweep.compute(first + k, tracer);
        },
        [&](std::size_t k) {
          const std::size_t i = first + k;
          if (ckpt_) {
            ckpt_->record(sweep.cell(i), *outputs[i]);
          }
          sweep.commit(i, *outputs[i]);
          outputs[i].reset();
        },
        &sweep, first);
  }

  /// Deterministic fan-out for benches whose cells are not
  /// experiment/slotted runs (e.g. packet-level replays): `task(i,
  /// tracer)` computes cell i, with `tracer` the session tracer at
  /// --jobs 1 and the cell's trace shard otherwise (null without
  /// --trace); `commit(i)` runs on this thread in submission order. No
  /// checkpoint layer — pair with Checkpointing::kNone.
  void run_cells(
      std::size_t count,
      const std::function<void(std::size_t, obs::FlowTracer*)>& task,
      const std::function<void(std::size_t)>& commit) {
    run_loop(count, task, commit);
  }

  /// Writes --metrics/--trace artifacts; call once, after emitting
  /// results. `status` other than "ok" marks a partial flush.
  void finish(const std::string& status = "ok") { obs_.finish(status); }

 private:
  RunSession(const CliParser& cli, std::string bench_name,
             std::int32_t fault_ports, double fault_horizon,
             const char* horizon_unit, Checkpointing checkpointing)
      : obs_(cli),
        faults_(cli, fault_ports, fault_horizon, horizon_unit, &obs_),
        jobs_(exec::resolve_jobs(static_cast<int>(cli.get_integer("jobs")))) {
    if (checkpointing == Checkpointing::kCells) {
      ckpt_.emplace(cli, std::move(bench_name), obs_);
    } else {
      require_no_checkpoint_flags(cli);
    }
  }

  /// exec::run_cells with the session's jobs and tracer, inside the one
  /// catch. For run_sweep, loop cell k is `sweep` cell `first` + k: the
  /// stall line names it, and a cell whose capture hook persisted its
  /// mid-run state needs no final checkpoint. run_cells' cells are named
  /// by their index.
  void run_loop(
      std::size_t count,
      const std::function<void(std::size_t, obs::FlowTracer*)>& compute,
      const std::function<void(std::size_t)>& commit,
      const exec::Sweep* sweep = nullptr, std::size_t first = 0) {
    std::size_t next = 0;  // the failing cell, when the loop throws
    try {
      exec::run_cells(count, jobs_, obs_.tracer_or_null(), compute,
                      [&](std::size_t k) {
                        commit(k);
                        next = k + 1;
                      });
    } catch (const InterruptedError& e) {
      const int sig = e.signal_number();
      fail(e.what(), sig > 0 ? 128 + sig : 3,
           sweep != nullptr ? &sweep->cell(first + next) : nullptr);
    } catch (const fault::StallError& e) {
      const exec::Cell* cell =
          sweep != nullptr ? &sweep->cell(first + next) : nullptr;
      const std::string label =
          cell != nullptr ? cell->label : std::to_string(next);
      std::fprintf(stderr, "stall during cell '%s': %s\n", label.c_str(),
                   e.what());
      fail("watchdog stall", 3, cell);
    }
  }

  /// Checkpoints the committed prefix (unless the failing cell's capture
  /// hook persisted its mid-run state just before the throw), flushes
  /// partial artifacts as "interrupted", and exits with `code`.
  [[noreturn]] void fail(const std::string& why, int code,
                         const exec::Cell* failing) {
    if (ckpt_) {
      const bool captured = failing != nullptr &&
                            static_cast<bool>(failing->slotted.on_checkpoint);
      ckpt_->abort_interrupted(why, code, /*write=*/!captured);
    }
    obs_.finish("interrupted");
    std::fprintf(stderr, "interrupted (%s): partial artifacts flushed\n",
                 why.c_str());
    std::exit(code);
  }

  ObsSession obs_;
  FaultSession faults_;
  std::optional<CheckpointSession> ckpt_;
  int jobs_;
};

}  // namespace basrpt::bench
