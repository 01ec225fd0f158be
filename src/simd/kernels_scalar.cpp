// Portable scalar kernel variants. This TU is the semantic reference:
// the SSE2/AVX2 TUs must match it bit for bit on NaN-free input.
#include <algorithm>
#include <cstring>

#include "simd/kernels.hpp"

namespace basrpt::simd::detail {
namespace {

void compute_keys_scalar(KeyOp op, double p0, double p1, const double* sr,
                         const double* backlog, std::size_t n, double* out) {
  switch (op) {
    case KeyOp::kCopy:
      if (out != sr) std::memcpy(out, sr, n * sizeof(double));
      break;
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
    case KeyOp::kNegBacklog:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = -backlog[i];
      }
      break;
  }
}

void bucket_indexes_scalar(const double* x, double mn, double inv,
                           std::uint32_t cap, std::size_t n,
                           std::uint32_t* out) {
  // Clamps happen in the double domain (min(trunc(v), cap) ==
  // trunc(min(v, (double)cap)) for v >= 0), which keeps the cast
  // defined for arbitrarily large scaled values and matches the vector
  // variants op for op.
  const auto capd = static_cast<double>(cap);
  for (std::size_t i = 0; i < n; ++i) {
    const double scaled = (x[i] - mn) * inv;
    out[i] = static_cast<std::uint32_t>(
        std::min(std::max(scaled, 0.0), capd));
  }
}

void bucket_indexes_2piece_scalar(const double* x, double split, double lo0,
                                  double inv0, std::uint32_t cap0, double lo1,
                                  double inv1, std::uint32_t base1,
                                  std::uint32_t cap, std::size_t n,
                                  std::uint32_t* out) {
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

bool bounds_ok_i32_scalar(const std::int32_t* x, std::size_t n,
                          std::int32_t limit) {
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < 0 || x[i] >= limit) return false;
  }
  return true;
}

}  // namespace

const KernelTable& scalar_table() {
  static const KernelTable table{
      compute_keys_scalar,
      bucket_indexes_scalar,
      bucket_indexes_2piece_scalar,
      bounds_ok_i32_scalar,
  };
  return table;
}

}  // namespace basrpt::simd::detail
