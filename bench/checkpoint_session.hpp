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
//    genuine mid-run capture. The simulator hands out a complete
//    SlottedSimState at slot boundaries (cadence, stall, SIGINT/
//    SIGTERM); resuming restores it and continues bit-identically.
//
// Either way the invariant is the same and tested: checkpoint + resume
// produces tables and figure CSVs byte-identical to an uninterrupted
// run, and with no checkpoint flags the benches are bit-identical to
// builds without this header (pay-for-use).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
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
#include "common/interrupt.hpp"
#include "common/serial.hpp"
#include "fault/watchdog.hpp"

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

/// Owned by bench::RunSession, which drives it both sequentially and
/// under --jobs; see bench/run_session.hpp.
class CheckpointSession {
 public:
  /// Construct after parse_common and after the ObsSession (partial
  /// artifacts are flushed through it on interruption). `bench_name` is
  /// the checkpoint filename stem and must match on resume.
  CheckpointSession(const CliParser& cli, std::string bench_name,
                    ObsSession& obs)
      : cli_(cli),
        obs_(obs),
        bench_(std::move(bench_name)),
        dir_(cli.get_text("checkpoint-dir")),
        resume_(cli.get_text("resume")),
        every_(cli.get_integer("checkpoint-every")),
        paranoid_(cli.get_flag("paranoid")) {
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
  bool paranoid() const { return paranoid_; }

  /// Runs (or replays) one experiment cell. Labels must be unique and
  /// arrive in the same order on every invocation — they name the cell
  /// in the checkpoint.
  core::ExperimentResult run(const std::string& label,
                             core::ExperimentConfig config) {
    config.paranoid = config.paranoid || paranoid_;
    const std::size_t idx = cells_.size();
    if (const Stored* stored = stored_cell(idx, "experiment", label)) {
      core::ExperimentResult r = ckpt::read_experiment_result(
          *snapshot_, stored->prefix, config.watched_src,
          config.watched_dst);
      cells_.push_back(Cell{"experiment", label, r, std::nullopt});
      std::fprintf(stderr, "checkpoint: cell '%s' replayed (no recompute)\n",
                   label.c_str());
      return r;
    }
    try {
      core::ExperimentResult r = core::run_experiment(config);
      cells_.push_back(Cell{"experiment", label, r, std::nullopt});
      after_cell();
      return r;
    } catch (const InterruptedError& e) {
      abort_interrupted(e.what(), exit_code(e));
    } catch (const fault::StallError& e) {
      std::fprintf(stderr, "stall during cell '%s': %s\n", label.c_str(),
                   e.what());
      abort_interrupted("watchdog stall", 3);
    }
  }

  /// Runs (or replays) one slotted cell, with mid-run capture/resume.
  /// `make_stream` must build a *freshly seeded* arrival stream each
  /// call — resume replays it to the checkpointed pull count.
  switchsim::SlottedResult run_slotted(
      const std::string& label, switchsim::SlottedConfig config,
      sched::Scheduler& scheduler,
      const std::function<switchsim::ArrivalStream()>& make_stream) {
    config.paranoid = config.paranoid || paranoid_;
    const std::size_t idx = cells_.size();
    if (const Stored* stored = stored_cell(idx, "slotted", label)) {
      switchsim::SlottedResult r = ckpt::read_slotted_result(
          *snapshot_, stored->prefix, config.watched_src,
          config.watched_dst);
      cells_.push_back(Cell{"slotted", label, std::nullopt, r});
      std::fprintf(stderr, "checkpoint: cell '%s' replayed (no recompute)\n",
                   label.c_str());
      return r;
    }
    std::optional<switchsim::SlottedSimState> resume_state;
    if (snapshot_ && wip_cell_ == static_cast<std::int64_t>(idx)) {
      if (wip_label_ != label) {
        mismatch(idx, wip_label_, label);
      }
      resume_state = ckpt::read_slotted_state(*snapshot_);
      config.resume_from = &*resume_state;
      std::fprintf(stderr,
                   "checkpoint: cell '%s' resuming mid-run at slot %lld\n",
                   label.c_str(),
                   static_cast<long long>(resume_state->slot));
    }
    if (enabled()) {
      config.checkpoint_every = every_;  // slots; 0 = interrupt/stall only
      config.on_checkpoint = [this, idx,
                              label](const switchsim::SlottedSimState& s) {
        write_checkpoint(&s, idx, label);
      };
    }
    try {
      switchsim::SlottedResult r =
          switchsim::run_slotted(config, scheduler, make_stream());
      cells_.push_back(Cell{"slotted", label, std::nullopt, r});
      after_cell();
      return r;
    } catch (const InterruptedError& e) {
      // The in-run on_checkpoint hook persisted the mid-run state just
      // before the throw; only artifacts remain to flush.
      abort_interrupted(e.what(), exit_code(e), /*write=*/!enabled());
    } catch (const fault::StallError& e) {
      std::fprintf(stderr, "stall during cell '%s': %s\n", label.c_str(),
                   e.what());
      abort_interrupted("watchdog stall", 3, /*write=*/!enabled());
    }
  }

  // ---- Parallel-sweep extension (bench::RunSession's --jobs path) ----
  //
  // The serialized commit path: workers compute cells concurrently, but
  // every mutation of this session — replaying the stored prefix,
  // recording a finished cell, writing a checkpoint — happens on the
  // committing thread, in submission order. Checkpoint files therefore
  // hold a *prefix* of the sweep regardless of --jobs, and resuming one
  // is indistinguishable from resuming a sequential run.

  /// True while the resume snapshot still holds the finished result of
  /// the next cell to declare (index cells_.size()).
  bool next_cell_stored() const {
    return snapshot_.has_value() && cells_.size() < stored_.size();
  }

  /// Replays the next cell from the snapshot (call only when
  /// next_cell_stored()).
  core::ExperimentResult replay_experiment(
      const std::string& label, const core::ExperimentConfig& config) {
    const Stored* stored = stored_cell(cells_.size(), "experiment", label);
    BASRPT_REQUIRE(stored != nullptr, "no stored cell to replay");
    core::ExperimentResult r = ckpt::read_experiment_result(
        *snapshot_, stored->prefix, config.watched_src, config.watched_dst);
    cells_.push_back(Cell{"experiment", label, r, std::nullopt});
    std::fprintf(stderr, "checkpoint: cell '%s' replayed (no recompute)\n",
                 label.c_str());
    return r;
  }

  switchsim::SlottedResult replay_slotted(
      const std::string& label, const switchsim::SlottedConfig& config) {
    const Stored* stored = stored_cell(cells_.size(), "slotted", label);
    BASRPT_REQUIRE(stored != nullptr, "no stored cell to replay");
    switchsim::SlottedResult r = ckpt::read_slotted_result(
        *snapshot_, stored->prefix, config.watched_src, config.watched_dst);
    cells_.push_back(Cell{"slotted", label, std::nullopt, r});
    std::fprintf(stderr, "checkpoint: cell '%s' replayed (no recompute)\n",
                 label.c_str());
    return r;
  }

  /// Mid-run state of the first unstored cell, if the snapshot captured
  /// one; null otherwise. The label must match the checkpointed wip
  /// label (a mismatch exits like any other cell-identity mismatch).
  std::shared_ptr<switchsim::SlottedSimState> take_wip(
      const std::string& label) {
    if (!snapshot_ || wip_cell_ != static_cast<std::int64_t>(cells_.size())) {
      return nullptr;
    }
    if (wip_label_ != label) {
      mismatch(cells_.size(), wip_label_, label);
    }
    auto state = std::make_shared<switchsim::SlottedSimState>(
        ckpt::read_slotted_state(*snapshot_));
    std::fprintf(stderr,
                 "checkpoint: cell '%s' resuming mid-run at slot %lld\n",
                 label.c_str(), static_cast<long long>(state->slot));
    return state;
  }

  /// Ordered commit of a cell computed outside this session (on a
  /// worker): records it and honors the checkpoint cadence exactly as
  /// the sequential run()/run_slotted() paths do.
  void commit_experiment(const std::string& label,
                         const core::ExperimentResult& r) {
    cells_.push_back(Cell{"experiment", label, r, std::nullopt});
    after_cell();
  }
  void commit_slotted(const std::string& label,
                      const switchsim::SlottedResult& r) {
    cells_.push_back(Cell{"slotted", label, std::nullopt, r});
    after_cell();
  }

  /// Interruption surfaced by the parallel runner: checkpoints the
  /// committed prefix, flushes partial artifacts, exits. Mid-run slotted
  /// capture is a jobs==1 feature, so here there is never wip state.
  [[noreturn]] void fail_interrupted(const std::string& why, int code) {
    abort_interrupted(why, code);
  }

  static int interrupt_exit_code(const InterruptedError& e) {
    return exit_code(e);
  }

 private:
  struct Cell {
    std::string kind;
    std::string label;
    std::optional<core::ExperimentResult> experiment;
    std::optional<switchsim::SlottedResult> slotted;
  };
  struct Stored {
    std::string kind;
    std::string label;
    std::string prefix;
  };

  static int exit_code(const InterruptedError& e) {
    return e.signal_number() > 0 ? 128 + e.signal_number() : 3;
  }

  [[noreturn]] void mismatch(std::size_t idx, const std::string& stored,
                             const std::string& current) {
    std::fprintf(stderr,
                 "error: checkpoint: cell %zu is '%s' in the checkpoint "
                 "but '%s' in this invocation — different bench version "
                 "or flags?\n",
                 idx, stored.c_str(), current.c_str());
    std::exit(2);
  }

  const Stored* stored_cell(std::size_t idx, const std::string& kind,
                            const std::string& label) {
    if (!snapshot_ || idx >= stored_.size()) {
      return nullptr;
    }
    const Stored& s = stored_[idx];
    if (s.kind != kind || s.label != label) {
      mismatch(idx, s.kind + " '" + s.label + "'", kind + " '" + label + "'");
    }
    return &s;
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

  void after_cell() {
    if (!enabled()) {
      return;
    }
    // Cell cadence: --checkpoint-every counts cells for experiment
    // benches (and doubles as a slot cadence inside slotted runs); 0
    // means "after every cell".
    const std::int64_t every_cells = every_ > 0 ? every_ : 1;
    if (static_cast<std::int64_t>(cells_.size()) % every_cells == 0) {
      write_checkpoint(nullptr, 0, "");
    }
  }

  /// Serializes completed cells (+ optionally one mid-run slotted state)
  /// and writes them through the manager's atomic path.
  void write_checkpoint(const switchsim::SlottedSimState* wip,
                        std::size_t wip_idx, const std::string& wip_label) {
    if (!enabled()) {
      return;
    }
    ckpt::SnapshotWriter w;
    auto& meta = w.section("meta");
    meta.text("bench", bench_);
    meta.text("fingerprint", fingerprint_);
    meta.u64("cells", cells_.size());
    for (const Cell& c : cells_) {
      meta.text("cell", c.kind + " " + c.label);
    }
    meta.u64("wip", wip != nullptr ? 1 : 0);
    if (wip != nullptr) {
      meta.text("wip_label", wip_label);
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const std::string prefix = "cell" + std::to_string(i);
      const Cell& c = cells_[i];
      if (c.experiment) {
        ckpt::write_experiment_result(w, prefix, *c.experiment);
      } else {
        ckpt::write_slotted_result(w, prefix, *c.slotted);
      }
    }
    if (wip != nullptr) {
      (void)wip_idx;  // position == cells_.size(), recorded via meta
      ckpt::write_slotted_state(w, *wip);
    }
    const std::string path = manager_->write(w.str());
    std::fprintf(stderr, "checkpoint: wrote %s (%zu cells%s)\n",
                 path.c_str(), cells_.size(),
                 wip != nullptr ? " + mid-run state" : "");
  }

  /// Final interruption path: persist what we have, flush partial
  /// artifacts with the "interrupted" marker, and exit.
  [[noreturn]] void abort_interrupted(const std::string& why, int code,
                                      bool write = true) {
    if (write) {
      try {
        write_checkpoint(nullptr, 0, "");
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

  const CliParser& cli_;
  ObsSession& obs_;
  std::string bench_;
  std::string dir_;
  std::string resume_;
  std::int64_t every_;
  bool paranoid_;
  std::string fingerprint_;

  std::optional<ckpt::CheckpointManager> manager_;
  std::optional<ckpt::SignalGuard> guard_;
  std::optional<ckpt::Snapshot> snapshot_;
  std::vector<Stored> stored_;
  std::int64_t wip_cell_ = -1;
  std::string wip_label_;
  std::vector<Cell> cells_;
};

}  // namespace basrpt::bench
