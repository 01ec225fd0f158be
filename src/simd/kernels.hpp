// Vectorizable primitives used by the decide hot path.
//
// Each function dispatches on simd::active_isa(). Inputs are raw lanes
// (see sched::CandidateView); all kernels require NaN-free doubles —
// candidate scores are sizes, backlogs and timestamps, never NaN.
//
// Bit-identity contract: every ISA variant performs the same IEEE-754
// operations in the same per-element order. Key computations use
// explicit multiply-then-subtract (no FMA contraction — the vector TUs
// are compiled with -ffp-contract=off to match the baseline scalar
// build), so scalar and vector keys match bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace basrpt::simd {

/// Fused per-candidate score computations over SoA lanes.
enum class KeyOp {
  /// out[i] = sr[i] — SRPT key (plain copy, lets callers share one path).
  kCopy = 0,
  /// out[i] = p0 * sr[i] - backlog[i] — fast-BASRPT key, p0 = V/n_ports.
  kFastBasrpt = 1,
  /// out[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1) — threshold-SRPT key,
  /// p0 = threshold, p1 = class offset.
  kThresholdSrpt = 2,
  /// out[i] = -backlog[i] — MaxWeight as a min-key (ascending matcher).
  kNegBacklog = 3,
};

/// Computes `out[i]` for i in [0, n) from the `sr` (shortest-remaining)
/// and `backlog` lanes. Lanes may alias `out` only if identical.
void compute_keys(KeyOp op, double p0, double p1, const double* sr,
                  const double* backlog, std::size_t n, double* out);

/// out[i] = min(cap, (uint32_t)max(0.0, (x[i] - mn) * inv)) — the
/// value-linear bucket index used by the matcher's scatter sort. `mn`
/// may be a robust (sampled) lower bound rather than the true minimum:
/// keys below it clamp into bucket 0, keys past the cap into bucket
/// `cap`. Requires inv finite and >= 0; x NaN-free (infinities are fine,
/// they clamp).
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
/// validation over the ingress/egress lanes.
bool bounds_ok_i32(const std::int32_t* x, std::size_t n, std::int32_t limit);

// Per-ISA implementation tables, linked from the per-ISA translation
// units. Not part of the public API; exposed for the dispatcher and the
// differential tests (which call each ISA directly).
namespace detail {

struct KernelTable {
  void (*compute_keys)(KeyOp, double, double, const double*, const double*,
                       std::size_t, double*);
  void (*bucket_indexes)(const double*, double, double, std::uint32_t,
                         std::size_t, std::uint32_t*);
  void (*bucket_indexes_2piece)(const double*, double, double, double,
                                std::uint32_t, double, double, std::uint32_t,
                                std::uint32_t, std::size_t, std::uint32_t*);
  bool (*bounds_ok_i32)(const std::int32_t*, std::size_t, std::int32_t);
};

const KernelTable& scalar_table();
#if defined(BASRPT_SIMD_ENABLED)
const KernelTable& sse2_table();
const KernelTable& avx2_table();
#endif

/// Table for the currently active ISA (see dispatch.hpp).
const KernelTable& active_table();

}  // namespace detail

}  // namespace basrpt::simd
