// CheckpointManager: durable, atomic, rotated checkpoint files.
//
// A checkpoint that can be torn by a crash mid-write is worse than no
// checkpoint — resume would act on garbage. Every write therefore goes
// temp file → fsync(file) → rename → fsync(directory), so the final
// name only ever refers to a fully-flushed snapshot. Rotation keeps the
// last K checkpoints (the newest can still be lost to e.g. a disk-full
// partial rename-source, and keeping history lets operators roll back
// past a checkpoint that captures an already-wedged state).
#pragma once

#include <cstdint>
#include <string>

namespace basrpt::ckpt {

struct CheckpointManagerConfig {
  std::string dir;          // created if missing
  std::string run_id;       // filename stem, e.g. "fig5_stability"
  int keep_last = 3;        // rotation depth; >= 1
};

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointManagerConfig config);

  /// Writes `payload` atomically as `<run_id>.<seq>.ckpt`, rotates old
  /// checkpoints, returns the final path. Throws ConfigError on I/O
  /// failure (callers decide whether a failed checkpoint is fatal).
  std::string write(const std::string& payload);

  /// Next sequence number to be assigned (monotonic per manager).
  std::uint64_t sequence() const { return seq_; }

  /// Resumed runs continue numbering after the checkpoint they loaded,
  /// so rotation never deletes the file the run was restored from first.
  void set_sequence(std::uint64_t next) { seq_ = next; }

  std::uint64_t writes() const { return writes_; }

  /// Path of the newest `<run_id>.<seq>.ckpt` in `dir`, or empty string
  /// when none exists. Newest = highest sequence number (not mtime:
  /// clocks lie, sequence numbers do not).
  static std::string latest(const std::string& dir, const std::string& run_id);

  /// Sequence number parsed from a checkpoint path produced by this
  /// manager; ConfigError when the name does not match the pattern.
  static std::uint64_t sequence_of(const std::string& path);

 private:
  void prune();

  CheckpointManagerConfig config_;
  std::uint64_t seq_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace basrpt::ckpt
