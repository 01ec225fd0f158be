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

/// compute_keys at the `count` positions `at` lists only; each key is
/// the same bits compute_keys writes there.
void compute_keys_at(KeyOp op, double p0, double p1, const double* sr,
                     const double* backlog, const std::uint32_t* at,
                     std::size_t count, double* out);

/// True iff 0 <= x[i] < limit for all i — the matcher's port-range
/// validation over the ingress/egress lanes. Requires limit >= 0.
bool bounds_ok_i32(const std::int32_t* x, std::size_t n, std::int32_t limit);

}  // namespace basrpt::simd
