// Deterministic parallel cell execution — the tentpole of the sweep
// runner (see docs/PARALLEL.md).
//
// CellPool runs N independent tasks on a fixed set of worker threads
// and commits their results on the *calling* thread in strict
// submission order. There is no work stealing and no reordering:
// workers claim task indices from a single atomic cursor (so claiming
// order equals submission order) and the caller walks a commit frontier
// index by index. Everything order-sensitive — result tables, CSV
// bytes, checkpoint sequence numbers, tracer merges, metric-shard
// folds — therefore happens in exactly the order a sequential run would
// produce, and the output is bit-identical at any job count.
//
// Failure semantics are deterministic too: if tasks or commits throw,
// the exception of the *lowest* failing index is rethrown after the
// cells before it have committed, regardless of which thread failed
// first in wall-clock terms. Remaining uncommitted work is cancelled
// (already-running tasks are drained, not interrupted — the simulators'
// cooperative interrupt flag handles SIGINT-style cancellation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace basrpt::exec {

/// --jobs semantics: 0 = hardware concurrency, otherwise the value
/// itself; the result is always at least 1.
int resolve_jobs(int jobs);

/// Progress snapshot of the currently running pool (all zeros /
/// inactive when no parallel run is in flight). Safe to call from any
/// thread; the heartbeat's cells-in-flight note reads it.
struct PoolStatus {
  std::size_t cells = 0;      // total cells in the running sweep
  std::size_t committed = 0;  // committed in submission order so far
  std::size_t in_flight = 0;  // tasks started but not yet finished
  bool active = false;
};
PoolStatus pool_status();

/// Timing profile of the most recent parallel run (empty after a
/// sequential run — the jobs<=1 path has no workers or frontier to
/// profile). Busy time is the wall-clock a worker spent inside task();
/// commit-frontier stall time is the wall-clock the calling thread
/// spent blocked waiting for the next in-order cell to finish. The
/// perf-suite bench reports busy fractions and stall fraction from
/// these.
struct PoolPerf {
  std::uint64_t wall_ns = 0;
  std::uint64_t commit_stall_ns = 0;
  std::vector<std::uint64_t> worker_busy_ns;  // one entry per worker
  std::vector<std::uint64_t> worker_claimed;  // cells claimed per worker

  std::size_t workers() const { return worker_busy_ns.size(); }
  /// Mean of per-worker busy_ns / wall_ns; 0 when nothing ran.
  double busy_frac_mean() const;
  double stall_frac() const {
    return wall_ns > 0 ? static_cast<double>(commit_stall_ns) /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
};
/// Snapshot of the last completed CellPool::run on this thread's pool.
/// Not thread-safe against a concurrently running pool; read it after
/// run() returns.
PoolPerf last_pool_perf();

/// Serialized printf-style progress line on stderr. Cell-completion
/// chatter ("load 0.8 done") goes through here so lines from the commit
/// thread never interleave with worker-side logging mid-line.
void progress(const char* format, ...) __attribute__((format(printf, 1, 2)));

class CellPool {
 public:
  /// `jobs` as passed on the command line (resolve_jobs applied).
  explicit CellPool(int jobs);

  int jobs() const { return jobs_; }

  /// Whether run(count, ...) spawns workers: more than one job and more
  /// than one cell.
  bool parallel(std::size_t count) const { return jobs_ > 1 && count > 1; }

  /// Runs `task(i)` for i in [0, count) on the workers and `commit(i)`
  /// on the calling thread, in index order. When !parallel(count) no
  /// threads are spawned and task/commit strictly alternate on the
  /// calling thread. While a parallel run is active, a heartbeat note
  /// reporting cells-in-flight is installed (see
  /// obs::set_heartbeat_note).
  void run(std::size_t count, const std::function<void(std::size_t)>& task,
           const std::function<void(std::size_t)>& commit);

 private:
  int jobs_;
};

}  // namespace basrpt::exec
