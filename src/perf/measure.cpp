#include "perf/measure.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "perf/profiler.hpp"
#include "stats/percentile.hpp"

namespace basrpt::perf {

namespace {

/// Rounds to the 1-2-5 ladder so two runs whose calibration probes
/// differ by a few percent still pick identical iteration counts.
std::uint64_t round_125(double x) {
  if (x <= 1.0) {
    return 1;
  }
  const double exponent = std::floor(std::log10(x));
  const double base = std::pow(10.0, exponent);
  const double mantissa = x / base;
  double chosen;
  if (mantissa < 1.5) {
    chosen = 1.0;
  } else if (mantissa < 3.5) {
    chosen = 2.0;
  } else if (mantissa < 7.5) {
    chosen = 5.0;
  } else {
    chosen = 10.0;
  }
  return static_cast<std::uint64_t>(chosen * base);
}

struct Rep {
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
  stats::ExactPercentiles samples;
};

}  // namespace

Measurement measure_op(const std::function<void()>& op,
                       const MeasureOptions& options,
                       const std::function<void()>& setup) {
  BASRPT_REQUIRE(options.reps >= 1, "measure_op needs at least one rep");
  BASRPT_REQUIRE(options.min_iters >= 1 &&
                     options.max_iters >= options.min_iters,
                 "measure_op iteration bounds are inconsistent");

  const bool alloc_was_on = alloc_counting();
  set_alloc_counting(true);

  for (int i = 0; i < options.warmup; ++i) {
    if (setup) {
      setup();
    }
    op();
  }

  // Calibration probe: size iters/rep to the budget.
  std::uint64_t probe_ns = 0;
  const int probe_iters = options.min_iters;
  for (int i = 0; i < probe_iters; ++i) {
    if (setup) {
      setup();
    }
    const std::uint64_t t0 = now_ns();
    op();
    probe_ns += now_ns() - t0;
  }
  const double est_ns_per_op =
      std::max(1.0, static_cast<double>(probe_ns) / probe_iters);
  const double budget_ns = options.rep_budget_ms * 1e6;
  std::uint64_t iters = round_125(budget_ns / est_ns_per_op);
  iters = std::clamp<std::uint64_t>(
      iters, static_cast<std::uint64_t>(options.min_iters),
      static_cast<std::uint64_t>(options.max_iters));

  std::vector<Rep> reps(static_cast<std::size_t>(options.reps));
  for (Rep& rep : reps) {
    std::uint64_t sum_op_ns = 0;
    std::uint64_t allocs = 0;
    if (setup == nullptr) {
      // Batch pass: the reported rate carries no per-op clock overhead.
      const std::uint64_t a0 = alloc_total();
      const std::uint64_t t0 = now_ns();
      for (std::uint64_t i = 0; i < iters; ++i) {
        op();
      }
      const std::uint64_t batch_ns = std::max<std::uint64_t>(1, now_ns() - t0);
      allocs = alloc_total() - a0;
      rep.ops_per_sec = static_cast<double>(iters) * 1e9 /
                        static_cast<double>(batch_ns);
      // Sampling pass: per-op tails.
      for (std::uint64_t i = 0; i < iters; ++i) {
        const std::uint64_t t1 = now_ns();
        op();
        rep.samples.add(static_cast<double>(now_ns() - t1));
      }
    } else {
      // Setup interleaved: every op is individually timed and the rate
      // is iters / sum(op ns) — setup cost never leaks into the record.
      for (std::uint64_t i = 0; i < iters; ++i) {
        setup();
        const std::uint64_t a0 = alloc_total();
        const std::uint64_t t0 = now_ns();
        op();
        const std::uint64_t ns = now_ns() - t0;
        allocs += alloc_total() - a0;
        sum_op_ns += ns;
        rep.samples.add(static_cast<double>(ns));
      }
      rep.ops_per_sec = static_cast<double>(iters) * 1e9 /
                        static_cast<double>(std::max<std::uint64_t>(
                            1, sum_op_ns));
    }
    rep.allocs_per_op =
        static_cast<double>(allocs) / static_cast<double>(iters);
  }

  set_alloc_counting(alloc_was_on);

  // Median rep by throughput; lower median for even rep counts.
  std::vector<std::size_t> order(reps.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    order[k] = k;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return reps[a].ops_per_sec < reps[b].ops_per_sec;
  });
  const Rep& median = reps[order[(order.size() - 1) / 2]];
  const double lo = reps[order.front()].ops_per_sec;
  const double hi = reps[order.back()].ops_per_sec;

  Measurement m;
  m.iters_per_rep = iters;
  m.reps = options.reps;
  m.ops_per_sec = median.ops_per_sec;
  m.ns_p50 = median.samples.quantile(0.50);
  m.ns_p99 = median.samples.quantile(0.99);
  m.ns_p999 = median.samples.p999();
  m.ns_mean = 1e9 / std::max(1.0, median.ops_per_sec);
  m.allocs_per_op = median.allocs_per_op;
  m.rep_spread_frac =
      median.ops_per_sec > 0.0 ? (hi - lo) / median.ops_per_sec : 0.0;
  return m;
}

}  // namespace basrpt::perf
