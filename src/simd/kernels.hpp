// Vectorizable primitives used by the decide hot path.
//
// Plain loops over raw lanes (see sched::CandidateView), compiled at -O3
// so the compiler can vectorize them for the build's target. All kernels
// require NaN-free doubles — candidate scores are sizes, backlogs and
// timestamps, never NaN.
//
// Key computations use explicit multiply-then-subtract, and this module
// is compiled with -ffp-contract=off, so no target that has FMA fuses
// them: keys are the same bits on every build.
#pragma once

#include <cstddef>
#include <cstdint>

namespace basrpt::simd {

/// Fused per-candidate score computations over SoA lanes.
enum class KeyOp {
  /// out[i] = p0 * sr[i] - backlog[i] — fast-BASRPT key, p0 = V/n_ports.
  kFastBasrpt,
  /// out[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1) — threshold-SRPT key,
  /// p0 = threshold, p1 = class offset.
  kThresholdSrpt,
};

/// Computes `out[i]` for i in [0, n) from the `sr` (shortest-remaining)
/// and `backlog` lanes. Lanes may alias `out` only if identical.
void compute_keys(KeyOp op, double p0, double p1, const double* sr,
                  const double* backlog, std::size_t n, double* out);

/// out[i] = min(cap, (uint32_t)max(0.0, (x[i] - mn) * inv)) — the
/// value-linear bucket index used by the matcher's scatter sort. `mn`
/// may be a robust (sampled) lower bound rather than the true minimum:
/// keys below it clamp into bucket 0, keys past the cap into bucket
/// `cap`. Requires inv finite and >= 0, cap <= INT32_MAX; x NaN-free
/// (infinities are fine, they clamp).
void bucket_indexes(const double* x, double mn, double inv, std::uint32_t cap,
                    std::size_t n, std::uint32_t* out);

/// Two-piece monotone bucket map for gap-split (bimodal) distributions:
///   x[i] <  split : min(cap0, (uint32_t)max(0.0, (x[i] - lo0) * inv0))
///   x[i] >= split : min(cap,  base1 + (uint32_t)max(0.0,
///                                                   (x[i] - lo1) * inv1))
/// with cap0 < base1 <= cap, so the map stays monotone across the gap
/// and every inversion the scatter leaves behind is intra-bucket.
void bucket_indexes_2piece(const double* x, double split, double lo0,
                           double inv0, std::uint32_t cap0, double lo1,
                           double inv1, std::uint32_t base1, std::uint32_t cap,
                           std::size_t n, std::uint32_t* out);

/// True iff 0 <= x[i] < limit for all i — the matcher's port-range
/// validation over the ingress/egress lanes. Requires limit >= 0.
bool bounds_ok_i32(const std::int32_t* x, std::size_t n, std::int32_t limit);

}  // namespace basrpt::simd
