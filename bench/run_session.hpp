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
// run_sweep at --jobs 1 drives each cell through the same
// CheckpointSession code path the sequential benches always used, so
// output is byte-identical to pre-RunSession builds. At --jobs > 1 the
// stored prefix replays first, then the remaining cells fan out on an
// exec::CellPool with per-cell metric/tracer shards (phase timings
// included, so --profile works at any --jobs); results, commit
// callbacks, checkpoint writes, and progress lines all land in
// submission order (see docs/PARALLEL.md for the determinism contract).
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "checkpoint_session.hpp"
#include "exec/artifacts.hpp"
#include "exec/cell_pool.hpp"
#include "exec/sweep.hpp"

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

  /// Observability + fault wiring for one cell config (all passive).
  void apply(core::ExperimentConfig& config) {
    obs_.apply(config);
    faults_.apply(config);
  }
  void apply(switchsim::SlottedConfig& config) {
    obs_.apply(config);
    faults_.apply(config);
  }
  void apply(flowsim::FlowSimConfig& config) { faults_.apply(config); }

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

  /// Runs every declared cell, honoring --jobs and --resume. Commits —
  /// bench callbacks, checkpoint writes, table rows — happen in
  /// submission order on this thread at any job count.
  void run_sweep(exec::Sweep& sweep) {
    if (jobs_ <= 1) {
      run_sequential(sweep);
    } else {
      run_parallel(sweep);
    }
  }

  /// Deterministic fan-out for benches whose cells are not
  /// experiment/slotted runs (e.g. packet-level replays): `task(i,
  /// tracer)` computes cell i on a worker with a metrics shard bound
  /// and `tracer` pointing at its trace shard (the session tracer, or
  /// null, when sequential); `commit(i)` runs on this thread in
  /// submission order after the shards are absorbed. No checkpoint
  /// layer — pair with Checkpointing::kNone.
  void run_cells(
      std::size_t count,
      const std::function<void(std::size_t, obs::FlowTracer*)>& task,
      const std::function<void(std::size_t)>& commit) {
    exec::CellPool pool(jobs_);
    if (pool.jobs() <= 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) {
        task(i, obs_.tracer_or_null());
        commit(i);
      }
      return;
    }
    obs::FlowTracer* session_tracer = obs_.tracer_or_null();
    std::vector<std::unique_ptr<exec::CellArtifacts>> artifacts(count);
    pool.run(
        count,
        [&](std::size_t i) {
          artifacts[i] =
              std::make_unique<exec::CellArtifacts>(session_tracer != nullptr);
          obs::ScopedRegistryBind bind(artifacts[i]->registry());
          task(i, artifacts[i]->tracer());
        },
        [&](std::size_t i) {
          artifacts[i]->absorb(session_tracer);
          commit(i);
          artifacts[i].reset();
        });
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

  void run_sequential(exec::Sweep& sweep) {
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      exec::Cell& cell = sweep.cell(i);
      if (cell.kind == exec::Cell::Kind::kExperiment) {
        if (ckpt_) {
          const core::ExperimentResult r =
              ckpt_->run(cell.label, cell.experiment);
          if (cell.on_experiment) {
            cell.on_experiment(r);
          }
        } else {
          sweep.commit(i, sweep.compute(i, nullptr));
        }
        continue;
      }
      if (ckpt_) {
        sched::SchedulerPtr scheduler = cell.make_scheduler();
        const switchsim::SlottedResult r = ckpt_->run_slotted(
            cell.label, cell.slotted, *scheduler, cell.make_stream);
        if (cell.on_slotted) {
          cell.on_slotted(r);
        }
      } else {
        sweep.commit(i, sweep.compute(i, nullptr));
      }
    }
  }

  void run_parallel(exec::Sweep& sweep) {
    // Replay the checkpointed prefix (and pick up any mid-run state for
    // the first unstored cell) before spawning workers: resume logic
    // stays strictly single-threaded.
    std::size_t first = 0;
    if (ckpt_) {
      while (first < sweep.size() && ckpt_->next_cell_stored()) {
        exec::Cell& cell = sweep.cell(first);
        if (cell.kind == exec::Cell::Kind::kExperiment) {
          const core::ExperimentResult r =
              ckpt_->replay_experiment(cell.label, cell.experiment);
          if (cell.on_experiment) {
            cell.on_experiment(r);
          }
        } else {
          const switchsim::SlottedResult r =
              ckpt_->replay_slotted(cell.label, cell.slotted);
          if (cell.on_slotted) {
            cell.on_slotted(r);
          }
        }
        ++first;
      }
      if (first < sweep.size() &&
          sweep.cell(first).kind == exec::Cell::Kind::kSlotted) {
        sweep.cell(first).resume_state =
            ckpt_->take_wip(sweep.cell(first).label);
      }
      // Mid-run slotted capture needs the sequential session; under
      // --jobs the checkpoint granularity is whole cells (see
      // docs/PARALLEL.md), and --paranoid folds in here because the
      // cells bypass CheckpointSession::run's own OR.
      for (std::size_t i = first; i < sweep.size(); ++i) {
        sweep.cell(i).experiment.paranoid |= ckpt_->paranoid();
        sweep.cell(i).slotted.paranoid |= ckpt_->paranoid();
      }
    }
    const std::size_t remaining = sweep.size() - first;
    if (remaining == 0) {
      return;
    }

    obs::FlowTracer* session_tracer = obs_.tracer_or_null();
    std::vector<std::unique_ptr<exec::CellArtifacts>> artifacts(sweep.size());
    std::vector<std::optional<exec::CellOutput>> outputs(sweep.size());
    exec::CellPool pool(jobs_);
    try {
      pool.run(
          remaining,
          [&](std::size_t k) {
            const std::size_t i = first + k;
            artifacts[i] = std::make_unique<exec::CellArtifacts>(
                session_tracer != nullptr);
            obs::ScopedRegistryBind bind(artifacts[i]->registry());
            outputs[i] = sweep.compute(i, artifacts[i]->tracer());
          },
          [&](std::size_t k) {
            const std::size_t i = first + k;
            artifacts[i]->absorb(session_tracer);
            const exec::Cell& cell = sweep.cell(i);
            if (ckpt_) {
              if (cell.kind == exec::Cell::Kind::kExperiment) {
                ckpt_->commit_experiment(cell.label, *outputs[i]->experiment);
              } else {
                ckpt_->commit_slotted(cell.label, *outputs[i]->slotted);
              }
            }
            sweep.commit(i, *outputs[i]);
            outputs[i].reset();
            artifacts[i].reset();
          });
    } catch (const InterruptedError& e) {
      fail(e.what(), CheckpointSession::interrupt_exit_code(e));
    } catch (const fault::StallError& e) {
      std::fprintf(stderr, "stall during parallel sweep: %s\n", e.what());
      fail("watchdog stall", 3);
    }
  }

  [[noreturn]] void fail(const std::string& why, int code) {
    if (ckpt_) {
      ckpt_->fail_interrupted(why, code);  // checkpoints, flushes, exits
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
