// The kernel set in use, for provenance lines in benchmark reports.
//
// There is one portable kernel set (simd/kernels.hpp); the compiler
// vectorizes it for the build's target, so it always reports "scalar".
#pragma once

namespace basrpt::simd {

enum class Isa {
  kScalar,  // portable C++ loops
};

/// Human-readable name ("scalar").
constexpr const char* isa_name(Isa) { return "scalar"; }

/// The kernel set the process runs.
constexpr Isa active_isa() { return Isa::kScalar; }

}  // namespace basrpt::simd
