// Runtime ISA dispatch for the scoring kernels.
//
// The kernels in this module exist in up to three variants — portable
// scalar, SSE2 (x86-64 baseline) and AVX2 — compiled into separate
// translation units so each can carry its own target attributes. Which
// variant runs is a process-global decision made once at startup and
// changeable at runtime (benches A/B scalar vs native; the differential
// tests pin each side in turn).
//
// Every variant of every kernel is bit-identical by construction: the
// vector paths use the same per-element IEEE operations in the same
// order as the scalar fallback (multiply-then-subtract, never FMA) and
// never reduce across lanes.
// A scalar-built binary (-DBASRPT_SIMD=OFF) therefore produces the same
// figure CSVs byte for byte — CI enforces this.
#pragma once

namespace basrpt::simd {

enum class Isa {
  kScalar = 0,  // portable C++ loops, always available
  kSse2 = 1,    // 2-wide doubles; baseline on x86-64
  kAvx2 = 2,    // 4-wide doubles
};

/// Human-readable name ("scalar", "sse2", "avx2").
const char* isa_name(Isa isa);

/// True when the vector variants were compiled in (BASRPT_SIMD=ON and an
/// x86-64 target). When false, kScalar is the only selectable ISA.
bool compiled_with_simd();

/// Best ISA both compiled in and supported by this CPU.
Isa best_supported_isa();

/// The ISA the kernels currently dispatch to. Defaults to
/// best_supported_isa(), overridable before first use with the
/// BASRPT_SIMD environment variable ("scalar", "sse2", "avx2" or
/// "native") and at any time with set_active_isa().
Isa active_isa();

/// Pins the dispatch. Throws ConfigError if `isa` was not compiled in or
/// the CPU lacks it.
void set_active_isa(Isa isa);

}  // namespace basrpt::simd
