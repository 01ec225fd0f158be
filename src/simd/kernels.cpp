#include "simd/kernels.hpp"

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

void compute_keys_at(KeyOp op, double p0, double p1, const double* sr,
                     const double* backlog, const std::uint32_t* at,
                     std::size_t count, double* out) {
  switch (op) {
    case KeyOp::kFastBasrpt:
      for (std::size_t k = 0; k < count; ++k) {
        const std::uint32_t i = at[k];
        const double prod = p0 * sr[i];
        out[i] = prod - backlog[i];
      }
      break;
    case KeyOp::kThresholdSrpt:
      for (std::size_t k = 0; k < count; ++k) {
        const std::uint32_t i = at[k];
        out[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1);
      }
      break;
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
