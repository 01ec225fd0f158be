// Checkpoint/resume wiring for the figure benches (--checkpoint-dir /
// --checkpoint-every / --resume; see docs/CHECKPOINT.md).
//
// Two granularities, one session:
//
//  * Experiment cells (core::run_experiment): every cell seeds a fresh
//    RNG and traffic source from its own config, so a cell's result
//    never depends on earlier cells. The session stores *finished*
//    cells; on resume they are replayed from the file bit-identically
//    and only the remaining cells run. A cell interrupted mid-run is
//    recomputed from its start (its progress is not checkpointable —
//    the flow-level calendar holds closures).
//
//  * Slotted cells (switchsim::run_slotted): additionally support
//    genuine mid-run capture at --jobs 1. The simulator hands out a
//    complete SlottedSimState at slot boundaries (cadence, stall,
//    SIGINT/SIGTERM); resuming restores it and continues
//    bit-identically, at any --jobs.
//
// Either way the invariant is the same and tested: checkpoint + resume
// produces tables and figure CSVs byte-identical to an uninterrupted
// run, and with no checkpoint flags the benches are bit-identical to
// builds without this header (pay-for-use).
//
// Mid-cell state enters in one place. replay() runs before a sweep's
// cells are computed: it commits the stored prefix, hands the first
// unstored slotted cell its mid-run state, and arms mid-cell capture.
// record() runs at each computed cell's in-order commit
// (bench::RunSession::run_sweep drives both around exec::run_cells),
// and abort_interrupted() is the interrupt/stall exit.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/experiment_state.hpp"
#include "ckpt/manager.hpp"
#include "ckpt/signal_guard.hpp"
#include "ckpt/slotted_state.hpp"
#include "ckpt/snapshot.hpp"
#include "common/serial.hpp"
#include "exec/sweep.hpp"

namespace basrpt::bench {

/// Options excluded from the resume-compatibility fingerprint: outputs
/// and robustness toggles that cannot change simulation results.
/// Anything else — loads, seeds, horizons, fault plans — must match
/// between the checkpointing and the resuming invocation.
inline std::vector<std::string> fingerprint_excludes() {
  return {"checkpoint-dir", "checkpoint-every", "resume",   "metrics",
          "trace",          "heartbeat",        "plot-dir", "csv",
          "watchdog",       "paranoid",         "jobs"};
}

/// Hard-fails benches whose work is not organized in resumable cells
/// (microbenchmarks, validation sweeps over closed-form models). Silent
/// acceptance would read as "checkpointing worked".
inline void require_no_checkpoint_flags(const CliParser& cli) {
  if (!cli.get_text("checkpoint-dir").empty() ||
      !cli.get_text("resume").empty() ||
      cli.get_integer("checkpoint-every") != 0) {
    std::fprintf(stderr,
                 "error: this bench has no checkpointable work units; "
                 "--checkpoint-dir/--checkpoint-every/--resume do not "
                 "apply here\n");
    std::exit(2);
  }
}

/// Owned by bench::RunSession, whose run_sweep calls replay() and then
/// runs the remaining cells through exec::run_cells, recording each one
/// here at its in-order commit; see bench/run_session.hpp.
class CheckpointSession {
 public:
  /// Construct after parse_common and after the ObsSession (partial
  /// artifacts are flushed through it on interruption). `bench_name` is
  /// the checkpoint filename stem and must match on resume.
  CheckpointSession(const CliParser& cli, std::string bench_name,
                    ObsSession& obs)
      : obs_(obs),
        bench_(std::move(bench_name)),
        dir_(cli.get_text("checkpoint-dir")),
        resume_(cli.get_text("resume")),
        every_(cli.get_integer("checkpoint-every")) {
    const std::string canon =
        bench_ + "\n" + cli.canonical_values(fingerprint_excludes());
    fingerprint_ = u64_to_hex(crc32_of(canon)).substr(8);
    if (every_ < 0) {
      std::fprintf(stderr, "error: --checkpoint-every must be >= 0\n");
      std::exit(2);
    }
    try {
      if (!dir_.empty()) {
        ckpt::CheckpointManagerConfig mc;
        mc.dir = dir_;
        mc.run_id = bench_;
        manager_.emplace(mc);
        guard_.emplace();  // arm SIGINT/SIGTERM → checkpoint-and-exit
      }
      if (!resume_.empty()) {
        load_resume();
      }
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "error: checkpoint: %s\n", e.what());
      std::exit(2);
    }
  }

  bool enabled() const { return manager_.has_value(); }

  /// The replay step, run once before the sweep's cells are computed.
  /// Replays the stored prefix from the snapshot and commits it (the
  /// cells' callbacks run, no recompute), hands the first unstored
  /// slotted cell its mid-run state when the snapshot captured one, and
  /// at one job arms mid-cell capture on the remaining slotted cells.
  /// Returns the index of the first cell left to compute. Labels must be
  /// unique and arrive in the same order on every invocation — they
  /// name the cells in the checkpoint.
  std::size_t replay(exec::Sweep& sweep, int jobs) {
    std::size_t first = 0;
    for (; first < sweep.size() && cells_.size() < stored_.size(); ++first) {
      const exec::Cell& cell = sweep.cell(first);
      exec::CellOutput out;
      if (cell.kind == exec::Cell::Kind::kExperiment) {
        out.experiment = ckpt::read_experiment_result(
            *snapshot_, stored_cell("experiment", cell.label).prefix,
            cell.experiment.watched_src, cell.experiment.watched_dst);
      } else {
        out.slotted = ckpt::read_slotted_result(
            *snapshot_, stored_cell("slotted", cell.label).prefix,
            cell.slotted.watched_src, cell.slotted.watched_dst);
      }
      keep(cell.label, out);
      std::fprintf(stderr, "checkpoint: cell '%s' replayed (no recompute)\n",
                   cell.label.c_str());
      sweep.commit(first, out);
    }
    if (first < sweep.size() &&
        wip_cell_ == static_cast<std::int64_t>(cells_.size()) &&
        sweep.cell(first).kind == exec::Cell::Kind::kSlotted) {
      exec::Cell& cell = sweep.cell(first);
      if (wip_label_ != cell.label) {
        mismatch(cells_.size(), wip_label_, cell.label);
      }
      cell.resume_state = std::make_shared<switchsim::SlottedSimState>(
          ckpt::read_slotted_state(*snapshot_));
      std::fprintf(stderr,
                   "checkpoint: cell '%s' resuming mid-run at slot %lld\n",
                   cell.label.c_str(),
                   static_cast<long long>(cell.resume_state->slot));
    }
    // The capture hook writes the committed prefix from the thread that
    // computes the cell, so it is armed only at one job, where that is
    // the committing thread (docs/PARALLEL.md). 0 slots = capture on
    // interrupt/stall only.
    if (enabled() && jobs == 1) {
      for (std::size_t i = first; i < sweep.size(); ++i) {
        exec::Cell& cell = sweep.cell(i);
        if (cell.kind != exec::Cell::Kind::kSlotted) {
          continue;
        }
        cell.slotted.checkpoint_every = every_;
        cell.slotted.on_checkpoint =
            [this, label = cell.label](const switchsim::SlottedSimState& s) {
              write_checkpoint(&s, label);
            };
      }
    }
    return first;
  }

  /// Ordered commit of a computed cell: records it and honours the
  /// checkpoint cadence. `--checkpoint-every` counts cells for
  /// experiment cells; for slotted cells it is a slot cadence inside the
  /// run, so every slotted cell also checkpoints at its commit — with
  /// mid-cell capture (at --jobs 1) or without it.
  void record(const exec::Cell& cell, const exec::CellOutput& out) {
    keep(cell.label, out);
    const std::int64_t every_cells =
        every_ > 0 && cell.kind != exec::Cell::Kind::kSlotted ? every_ : 1;
    if (enabled() &&
        static_cast<std::int64_t>(cells_.size()) % every_cells == 0) {
      write_checkpoint(nullptr, "");
    }
  }

  /// Interruption: persists the committed prefix (skipped with `write`
  /// false, when the failing cell's capture hook already persisted its
  /// mid-run state just before the throw), flushes partial artifacts
  /// with the "interrupted" marker, and exits with `code`.
  [[noreturn]] void abort_interrupted(const std::string& why, int code,
                                      bool write) {
    if (write) {
      try {
        write_checkpoint(nullptr, "");
      } catch (const ConfigError& e) {
        std::fprintf(stderr, "checkpoint write failed: %s\n", e.what());
      }
    }
    obs_.finish("interrupted");
    std::fprintf(stderr,
                 "interrupted (%s): partial artifacts flushed; resume "
                 "with --resume latest\n",
                 why.c_str());
    std::exit(code);
  }

 private:
  /// A committed cell: stored results and computed ones alike.
  struct Committed {
    std::string label;
    exec::CellOutput out;
  };
  struct Stored {
    std::string kind;
    std::string label;
    std::string prefix;
  };

  [[noreturn]] void mismatch(std::size_t idx, const std::string& stored,
                             const std::string& current) {
    std::fprintf(stderr,
                 "error: checkpoint: cell %zu is '%s' in the checkpoint "
                 "but '%s' in this invocation — different bench version "
                 "or flags?\n",
                 idx, stored.c_str(), current.c_str());
    std::exit(2);
  }

  /// Every checkpoint holds the whole committed prefix, so a cell's
  /// result is kept only while checkpoints are written; without
  /// --checkpoint-dir the entry just counts the cell.
  void keep(const std::string& label, const exec::CellOutput& out) {
    cells_.push_back(
        Committed{label, enabled() ? out : exec::CellOutput{}});
  }

  /// The stored entry of the next cell to commit; exits on a kind or
  /// label mismatch.
  const Stored& stored_cell(const std::string& kind,
                            const std::string& label) {
    const std::size_t idx = cells_.size();
    const Stored& s = stored_[idx];
    if (s.kind != kind || s.label != label) {
      mismatch(idx, s.kind + " '" + s.label + "'", kind + " '" + label + "'");
    }
    return s;
  }

  void load_resume() {
    std::string path = resume_;
    if (path == "latest") {
      if (dir_.empty()) {
        throw ConfigError("--resume latest needs --checkpoint-dir");
      }
      path = ckpt::CheckpointManager::latest(dir_, bench_);
      if (path.empty()) {
        throw ConfigError("no checkpoint found in " + dir_ + " for " +
                          bench_);
      }
    }
    snapshot_ = ckpt::Snapshot::from_file(path);
    std::fprintf(stderr, "checkpoint: resuming from %s\n", path.c_str());

    ckpt::SectionReader meta = snapshot_->reader("meta");
    const std::string bench = meta.text("bench");
    if (bench != bench_) {
      throw ConfigError("checkpoint belongs to bench '" + bench +
                        "', this is '" + bench_ + "'");
    }
    const std::string fp = meta.text("fingerprint");
    if (fp != fingerprint_) {
      throw ConfigError(
          "checkpoint fingerprint " + fp + " does not match this "
          "invocation's " + fingerprint_ +
          " — run with the same simulation flags as the original");
    }
    const std::uint64_t cells = meta.u64("cells");
    for (std::uint64_t i = 0; i < cells; ++i) {
      const std::string cell = meta.text("cell");
      const std::size_t space = cell.find(' ');
      if (space == std::string::npos) {
        meta.fail("cell entry must be '<kind> <label>'");
      }
      Stored s;
      s.kind = cell.substr(0, space);
      s.label = cell.substr(space + 1);
      s.prefix = "cell" + std::to_string(i);
      if (s.kind != "experiment" && s.kind != "slotted") {
        meta.fail("unknown cell kind '" + s.kind + "'");
      }
      stored_.push_back(std::move(s));
    }
    const std::uint64_t has_wip = meta.u64("wip");
    if (has_wip > 1) {
      meta.fail("wip must be 0 or 1");
    }
    if (has_wip == 1) {
      wip_cell_ = static_cast<std::int64_t>(stored_.size());
      wip_label_ = meta.text("wip_label");
    }
    meta.expect_done();

    if (manager_) {
      // Continue numbering after the loaded file so rotation never
      // deletes it before the first post-resume checkpoint lands.
      try {
        manager_->set_sequence(ckpt::CheckpointManager::sequence_of(path) +
                               1);
      } catch (const ConfigError&) {
        // Hand-named file outside the manager's pattern: keep default.
      }
    }
  }

  /// Serializes the committed cells (+ optionally one mid-run slotted
  /// state) and writes them through the manager's atomic path.
  void write_checkpoint(const switchsim::SlottedSimState* wip,
                        const std::string& wip_label) {
    if (!enabled()) {
      return;
    }
    ckpt::SnapshotWriter w;
    auto& meta = w.section("meta");
    meta.text("bench", bench_);
    meta.text("fingerprint", fingerprint_);
    meta.u64("cells", cells_.size());
    for (const Committed& c : cells_) {
      meta.text("cell", (c.out.experiment ? "experiment " : "slotted ") +
                            c.label);
    }
    meta.u64("wip", wip != nullptr ? 1 : 0);
    if (wip != nullptr) {
      meta.text("wip_label", wip_label);
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const std::string prefix = "cell" + std::to_string(i);
      const exec::CellOutput& out = cells_[i].out;
      if (out.experiment) {
        ckpt::write_experiment_result(w, prefix, *out.experiment);
      } else {
        ckpt::write_slotted_result(w, prefix, *out.slotted);
      }
    }
    if (wip != nullptr) {
      ckpt::write_slotted_state(w, *wip);  // its cell is cells_.size()
    }
    const std::string path = manager_->write(w.str());
    std::fprintf(stderr, "checkpoint: wrote %s (%zu cells%s)\n",
                 path.c_str(), cells_.size(),
                 wip != nullptr ? " + mid-run state" : "");
  }

  ObsSession& obs_;
  std::string bench_;
  std::string dir_;
  std::string resume_;
  std::int64_t every_;
  std::string fingerprint_;

  std::optional<ckpt::CheckpointManager> manager_;
  std::optional<ckpt::SignalGuard> guard_;
  std::optional<ckpt::Snapshot> snapshot_;
  std::vector<Stored> stored_;
  std::int64_t wip_cell_ = -1;
  std::string wip_label_;
  std::vector<Committed> cells_;
};

}  // namespace basrpt::bench
