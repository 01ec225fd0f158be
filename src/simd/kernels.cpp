#include "simd/kernels.hpp"

#include <algorithm>

namespace basrpt::simd {

void compute_keys(KeyOp op, double p0, double p1, const double* sr,
                  const double* backlog, std::size_t n, double* out) {
  switch (op) {
    case KeyOp::kFastBasrpt:
      for (std::size_t i = 0; i < n; ++i) {
        const double prod = p0 * sr[i];
        out[i] = prod - backlog[i];
      }
      break;
    case KeyOp::kThresholdSrpt:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1);
      }
      break;
  }
}

void bucket_indexes(const double* x, double mn, double inv, std::uint32_t cap,
                    std::size_t n, std::uint32_t* out) {
  // Clamps happen in the double domain (min(trunc(v), cap) ==
  // trunc(min(v, (double)cap)) for v >= 0), which keeps the cast
  // defined for arbitrarily large scaled values. The clamped value fits
  // int32, and converting through it lets the x86-64 baseline vectorize
  // the conversion (SSE2 has no unsigned one).
  const auto capd = static_cast<double>(cap);
  for (std::size_t i = 0; i < n; ++i) {
    const double scaled = (x[i] - mn) * inv;
    out[i] = static_cast<std::uint32_t>(static_cast<std::int32_t>(
        std::min(std::max(scaled, 0.0), capd)));
  }
}

void bucket_indexes_2piece(const double* x, double split, double lo0,
                           double inv0, std::uint32_t cap0, double lo1,
                           double inv1, std::uint32_t base1, std::uint32_t cap,
                           std::size_t n, std::uint32_t* out) {
  const auto cap0d = static_cast<double>(cap0);
  const auto cap1d = static_cast<double>(cap - base1);
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < split) {
      const double v = std::min(std::max((x[i] - lo0) * inv0, 0.0), cap0d);
      out[i] = static_cast<std::uint32_t>(v);
    } else {
      const double v = std::min(std::max((x[i] - lo1) * inv1, 0.0), cap1d);
      out[i] = base1 + static_cast<std::uint32_t>(v);
    }
  }
}

bool bounds_ok_i32(const std::int32_t* x, std::size_t n, std::int32_t limit) {
  // A negative value wraps past any non-negative limit as unsigned, so
  // one compare per element checks both ends; OR-ing the results instead
  // of returning early leaves a loop the compiler vectorizes.
  const auto ulimit = static_cast<std::uint32_t>(limit);
  std::uint32_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bad |= static_cast<std::uint32_t>(x[i]) >= ulimit;
  }
  return bad == 0;
}

}  // namespace basrpt::simd
