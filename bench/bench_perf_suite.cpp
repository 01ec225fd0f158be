// Macro perf suite: end-to-end simulator throughput and parallel-runner
// health, recorded as basrpt-bench-v1 for the regression gate.
//
// Two cases:
//  * flowsim/quick — one quick-scale experiment per repetition with
//    the phase timers armed: events/sec, calendar depth peak, allocations
//    per event (deterministic for a fixed seed — the gate holds it to
//    an absolute corridor), and the profile coverage fraction (the
//    share of run wall-clock the phase breakdown accounts for; the
//    pay-for-use contract in docs/PERF.md wants >= 0.9).
//  * cellpool/jobs=N — a synthetic deterministic sweep on the parallel
//    cell runner: cells/sec, mean per-worker busy fraction, and the
//    commit-frontier stall fraction from exec::last_pool_perf().
//
// CI runs this with a short --horizon so the stage stays bounded; the
// committed baseline uses the default. Flags: --perf-out=PATH,
// --reps=N, --horizon=SEC, --jobs=N.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "exec/cell_pool.hpp"
#include "obs/metrics.hpp"
#include "perf/bench_record.hpp"
#include "perf/profiler.hpp"
#include "topo/topology.hpp"

namespace {

using namespace basrpt;

/// One quick-scale flowsim run with observability on (so every phase
/// timer and decision metric is armed) and allocation counting. Reported
/// numbers are the median repetition by events/sec.
perf::BenchCase flowsim_case(double horizon_sec, int reps) {
  struct Rep {
    double events_per_sec = 0.0;
    double events = 0.0;
    double calendar_peak = 0.0;
    double allocs_per_event = 0.0;
    double coverage = 0.0;
    double decide_frac = 0.0;
    double dispatch_frac = 0.0;
  };
  std::vector<Rep> runs;

  obs::set_enabled(true);
  for (int r = 0; r < reps; ++r) {
    obs::Registry::global().reset();
    core::ExperimentConfig config;
    config.fabric = topo::small_fabric(4, 6, 3);
    config.scheduler = sched::SchedulerSpec::fast_basrpt(
        core::scale_v(2500.0, config.fabric.hosts()));
    config.horizon = seconds(horizon_sec);
    config.seed = 1;

    perf::set_alloc_counting(true);
    const std::uint64_t a0 = perf::alloc_total();
    const std::uint64_t t0 = perf::now_ns();
    auto result = core::run_experiment(config);
    const std::uint64_t wall = perf::now_ns() - t0;
    const std::uint64_t allocs = perf::alloc_total() - a0;
    perf::set_alloc_counting(false);

    Rep rep;
    obs::Registry& reg = obs::Registry::global();
    rep.events =
        static_cast<double>(reg.counter("sim.events_executed").value());
    rep.calendar_peak = reg.gauge("sim.calendar_peak").value();
    if (wall > 0) {
      const auto frac = [wall](std::uint64_t ns) {
        return static_cast<double>(ns) / static_cast<double>(wall);
      };
      rep.events_per_sec = rep.events * 1e9 / static_cast<double>(wall);
      rep.coverage = frac(reg.phase_self_ns());
      rep.decide_frac = frac(reg.phase(obs::Phase::kDecide).self_ns);
      rep.dispatch_frac = frac(reg.phase(obs::Phase::kEventDispatch).self_ns);
    }
    rep.allocs_per_event =
        rep.events > 0 ? static_cast<double>(allocs) / rep.events : 0.0;
    // Keep the run honest: a sim that silently did nothing would make
    // every rate below vacuously stable.
    BASRPT_REQUIRE(result.flows_completed > 0,
                   "perf-suite flowsim run completed no flows");
    runs.push_back(rep);
  }
  obs::set_enabled(false);

  std::sort(runs.begin(), runs.end(), [](const Rep& a, const Rep& b) {
    return a.events_per_sec < b.events_per_sec;
  });
  const Rep& median = runs[(runs.size() - 1) / 2];

  perf::BenchCase c;
  c.label = "flowsim/quick";
  c.param("fabric", "24-host quick");
  c.param("scheduler", "fast-basrpt");
  c.param("horizon_sec", std::to_string(horizon_sec));
  c.metric("events_per_sec", median.events_per_sec);
  c.metric("events", median.events);
  c.metric("calendar_depth_peak", median.calendar_peak);
  c.metric("allocs_per_event", median.allocs_per_event);
  c.metric("coverage_frac", median.coverage);
  c.metric("decide_self_frac", median.decide_frac);
  c.metric("dispatch_self_frac", median.dispatch_frac);
  std::printf("flowsim/quick: %.0f events/s, calendar peak %.0f, "
              "allocs/event %.3f, profile coverage %.1f%%\n",
              median.events_per_sec, median.calendar_peak,
              median.allocs_per_event, median.coverage * 100.0);
  return c;
}

/// Deterministic spin work: the result feeds a volatile sink so the
/// optimizer cannot elide the loop, and the iteration count is fixed so
/// every cell costs the same on a given host.
volatile std::uint64_t g_sink;
void spin_cell(std::uint64_t iters) {
  std::uint64_t acc = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc ^= acc << 13;
    acc ^= acc >> 7;
    acc ^= acc << 17;
  }
  g_sink = acc;
}

perf::BenchCase cellpool_case(int jobs, int reps) {
  constexpr std::size_t kCells = 64;
  constexpr std::uint64_t kSpinIters = 400000;

  struct Rep {
    double cells_per_sec = 0.0;
    exec::PoolPerf perf;
  };
  std::vector<Rep> runs;
  for (int r = 0; r < reps; ++r) {
    exec::CellPool pool(jobs);
    const std::uint64_t t0 = perf::now_ns();
    pool.run(
        kCells, [](std::size_t) { spin_cell(kSpinIters); },
        [](std::size_t) {});
    const std::uint64_t wall =
        std::max<std::uint64_t>(1, perf::now_ns() - t0);
    Rep rep;
    rep.cells_per_sec =
        static_cast<double>(kCells) * 1e9 / static_cast<double>(wall);
    rep.perf = exec::last_pool_perf();
    runs.push_back(std::move(rep));
  }
  std::sort(runs.begin(), runs.end(), [](const Rep& a, const Rep& b) {
    return a.cells_per_sec < b.cells_per_sec;
  });
  const Rep& median = runs[(runs.size() - 1) / 2];

  perf::BenchCase c;
  c.label = "cellpool/jobs=" + std::to_string(jobs);
  c.param("jobs", std::to_string(jobs));
  c.param("cells", std::to_string(kCells));
  c.param("spin_iters", std::to_string(kSpinIters));
  c.metric("cells_per_sec", median.cells_per_sec);
  c.metric("worker_busy_frac_mean", median.perf.busy_frac_mean());
  c.metric("commit_stall_frac", median.perf.stall_frac());
  c.metric("workers", static_cast<double>(median.perf.workers()));
  std::printf("cellpool/jobs=%d: %.1f cells/s, busy frac %.2f, "
              "commit stall frac %.2f\n",
              jobs, median.cells_per_sec, median.perf.busy_frac_mean(),
              median.perf.stall_frac());
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::string perf_out = "BENCH_perf_suite.json";
  int reps = 3;
  double horizon = 2.0;
  int jobs = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--perf-out=", 11) == 0) {
      perf_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--horizon=", 10) == 0) {
      horizon = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::atoi(argv[i] + 7);
    } else {
      std::fprintf(stderr,
                   "usage: bench_perf_suite [--perf-out=PATH] [--reps=N] "
                   "[--horizon=SEC] [--jobs=N]\n");
      return 2;
    }
  }
  if (reps < 1 || horizon <= 0.0 || jobs < 2) {
    std::fprintf(stderr,
                 "error: need --reps >= 1, --horizon > 0, --jobs >= 2\n");
    return 2;
  }

  perf::BenchRecord record = perf::make_record("perf_suite", 0, reps);
  record.cases.push_back(flowsim_case(horizon, reps));
  record.cases.push_back(cellpool_case(jobs, reps));
  perf::write_record_file(perf_out, record);
  std::printf("wrote %zu cases to %s\n", record.cases.size(),
              perf_out.c_str());
  return 0;
}
