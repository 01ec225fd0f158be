#include "exec/cell_pool.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/heartbeat.hpp"

namespace basrpt::exec {

namespace {

/// Progress counters of the (single) running pool. The runner is not
/// reentrant — sweeps do not nest — so one global set suffices; the
/// heartbeat note reads these from worker threads.
struct StatusCounters {
  std::atomic<std::size_t> cells{0};
  std::atomic<std::size_t> committed{0};
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> active{false};
};
StatusCounters g_status;

/// Per-worker claimed-cell counters for the heartbeat note. Static and
/// bounded so the note lambda — which may run on the heartbeat thread
/// after a worker's stack frame is gone — never chases a dangling
/// pointer into run()'s locals. Workers beyond the bound still run;
/// only their note attribution folds into the last slot.
constexpr std::size_t kMaxNotedWorkers = 64;
std::array<std::atomic<std::uint64_t>, kMaxNotedWorkers> g_claimed{};
std::atomic<std::size_t> g_noted_workers{0};

std::size_t note_slot(std::size_t worker) {
  return worker < kMaxNotedWorkers ? worker : kMaxNotedWorkers - 1;
}

/// Profile of the last completed run; written by the commit thread
/// after workers join, so readers honouring the "read after run()
/// returns" contract see a quiescent value.
PoolPerf g_last_perf;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::mutex& progress_mutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

int resolve_jobs(int jobs) {
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }
  return jobs > 1 ? jobs : 1;
}

PoolStatus pool_status() {
  PoolStatus s;
  s.active = g_status.active.load(std::memory_order_relaxed);
  if (!s.active) {
    return s;
  }
  s.cells = g_status.cells.load(std::memory_order_relaxed);
  s.committed = g_status.committed.load(std::memory_order_relaxed);
  const std::size_t started = g_status.started.load(std::memory_order_relaxed);
  const std::size_t finished =
      g_status.finished.load(std::memory_order_relaxed);
  s.in_flight = started > finished ? started - finished : 0;
  return s;
}

double PoolPerf::busy_frac_mean() const {
  if (wall_ns == 0 || worker_busy_ns.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const std::uint64_t busy : worker_busy_ns) {
    sum += static_cast<double>(busy) / static_cast<double>(wall_ns);
  }
  return sum / static_cast<double>(worker_busy_ns.size());
}

PoolPerf last_pool_perf() { return g_last_perf; }

void progress(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  const std::lock_guard<std::mutex> lock(progress_mutex());
  std::fputs(buf, stderr);
}

CellPool::CellPool(int jobs) : jobs_(resolve_jobs(jobs)) {}

void CellPool::run(std::size_t count,
                   const std::function<void(std::size_t)>& task,
                   const std::function<void(std::size_t)>& commit) {
  if (count == 0) {
    return;
  }
  if (!parallel(count)) {
    // Compute one cell, commit it, move on: no threads.
    for (std::size_t i = 0; i < count; ++i) {
      task(i);
      commit(i);
    }
    return;
  }

  struct Slot {
    bool done = false;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(count);
  std::mutex mutex;
  std::condition_variable done_cv;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> cancel{false};

  const std::size_t n_workers =
      count < static_cast<std::size_t>(jobs_) ? count
                                              : static_cast<std::size_t>(jobs_);
  std::vector<std::uint64_t> busy_ns(n_workers, 0);
  std::vector<std::uint64_t> claimed(n_workers, 0);

  g_status.cells.store(count, std::memory_order_relaxed);
  g_status.committed.store(0, std::memory_order_relaxed);
  g_status.started.store(0, std::memory_order_relaxed);
  g_status.finished.store(0, std::memory_order_relaxed);
  const std::size_t noted =
      n_workers < kMaxNotedWorkers ? n_workers : kMaxNotedWorkers;
  for (std::size_t w = 0; w < noted; ++w) {
    g_claimed[w].store(0, std::memory_order_relaxed);
  }
  g_noted_workers.store(noted, std::memory_order_relaxed);
  g_status.active.store(true, std::memory_order_relaxed);
  obs::HeartbeatNoteFn previous_note = obs::set_heartbeat_note([] {
    const PoolStatus s = pool_status();
    if (!s.active) {
      return std::string();
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "cells %zu/%zu committed, %zu in flight",
                  s.committed, s.cells, s.in_flight);
    std::string note(buf);
    // Per-worker claimed-cell counts: a stuck worker shows up as one
    // count frozen while its siblings keep climbing.
    note += ", claimed [";
    const std::size_t n = g_noted_workers.load(std::memory_order_relaxed);
    for (std::size_t w = 0; w < n; ++w) {
      if (w > 0) {
        note += " ";
      }
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(
                        g_claimed[w].load(std::memory_order_relaxed)));
      note += buf;
    }
    note += "]";
    return note;
  });

  const std::uint64_t run_t0 = now_ns();
  auto worker = [&](std::size_t w) {
    for (;;) {
      if (cancel.load(std::memory_order_relaxed)) {
        return;
      }
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      ++claimed[w];
      g_claimed[note_slot(w)].fetch_add(1, std::memory_order_relaxed);
      g_status.started.fetch_add(1, std::memory_order_relaxed);
      std::exception_ptr error;
      const std::uint64_t t0 = now_ns();
      try {
        task(i);
      } catch (...) {
        error = std::current_exception();
      }
      busy_ns[w] += now_ns() - t0;
      g_status.finished.fetch_add(1, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(mutex);
        slots[i].done = true;
        slots[i].error = error;
      }
      done_cv.notify_all();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers.emplace_back(worker, w);
  }

  // Commit frontier: strictly in submission order, on this thread. On
  // the first failing index, cells before it are already committed;
  // everything at or after it is cancelled and *its* exception — the
  // lowest-index one, a deterministic choice — propagates.
  std::exception_ptr failure;
  std::uint64_t stall_ns = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::exception_ptr error;
    {
      const std::uint64_t wait_t0 = now_ns();
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] { return slots[i].done; });
      stall_ns += now_ns() - wait_t0;
      error = slots[i].error;
    }
    if (error == nullptr) {
      try {
        commit(i);
        g_status.committed.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (error != nullptr) {
      failure = error;
      break;
    }
  }

  if (failure != nullptr) {
    cancel.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : workers) {
    t.join();
  }
  obs::set_heartbeat_note(std::move(previous_note));
  g_status.active.store(false, std::memory_order_relaxed);
  g_last_perf.wall_ns = now_ns() - run_t0;
  g_last_perf.commit_stall_ns = stall_ns;
  g_last_perf.worker_busy_ns = std::move(busy_ns);
  g_last_perf.worker_claimed = std::move(claimed);
  if (failure != nullptr) {
    std::rethrow_exception(failure);
  }
}

}  // namespace basrpt::exec
