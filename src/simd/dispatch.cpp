#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/assert.hpp"
#include "simd/kernels.hpp"

namespace basrpt::simd {
namespace {

bool cpu_supports(Isa isa) {
#if defined(BASRPT_SIMD_ENABLED)
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
      return true;  // baseline on x86-64
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

Isa initial_isa() {
  Isa best = best_supported_isa();
  const char* env = std::getenv("BASRPT_SIMD");
  if (env == nullptr || *env == '\0') return best;
  const std::string v(env);
  Isa want;
  if (v == "scalar") {
    want = Isa::kScalar;
  } else if (v == "sse2") {
    want = Isa::kSse2;
  } else if (v == "avx2") {
    want = Isa::kAvx2;
  } else if (v == "native") {
    return best;
  } else {
    throw ConfigError("BASRPT_SIMD: unknown value '" + v +
                      "' (want scalar|sse2|avx2|native)");
  }
  BASRPT_REQUIRE(cpu_supports(want),
                 std::string("BASRPT_SIMD=") + v +
                     ": ISA not available in this build/CPU");
  return want;
}

std::atomic<int>& active_slot() {
  static std::atomic<int> slot{static_cast<int>(initial_isa())};
  return slot;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool compiled_with_simd() {
#if defined(BASRPT_SIMD_ENABLED)
  return true;
#else
  return false;
#endif
}

Isa best_supported_isa() {
  if (cpu_supports(Isa::kAvx2)) return Isa::kAvx2;
  if (cpu_supports(Isa::kSse2)) return Isa::kSse2;
  return Isa::kScalar;
}

Isa active_isa() {
  return static_cast<Isa>(active_slot().load(std::memory_order_relaxed));
}

void set_active_isa(Isa isa) {
  BASRPT_REQUIRE(cpu_supports(isa),
                 std::string("simd: ISA '") + isa_name(isa) +
                     "' not available in this build/CPU");
  active_slot().store(static_cast<int>(isa), std::memory_order_relaxed);
}

namespace detail {

const KernelTable& active_table() {
  switch (active_isa()) {
#if defined(BASRPT_SIMD_ENABLED)
    case Isa::kSse2:
      return sse2_table();
    case Isa::kAvx2:
      return avx2_table();
#endif
    default:
      return scalar_table();
  }
}

}  // namespace detail

void compute_keys(KeyOp op, double p0, double p1, const double* sr,
                  const double* backlog, std::size_t n, double* out) {
  detail::active_table().compute_keys(op, p0, p1, sr, backlog, n, out);
}

void bucket_indexes(const double* x, double mn, double inv, std::uint32_t cap,
                    std::size_t n, std::uint32_t* out) {
  detail::active_table().bucket_indexes(x, mn, inv, cap, n, out);
}

void bucket_indexes_2piece(const double* x, double split, double lo0,
                           double inv0, std::uint32_t cap0, double lo1,
                           double inv1, std::uint32_t base1, std::uint32_t cap,
                           std::size_t n, std::uint32_t* out) {
  detail::active_table().bucket_indexes_2piece(x, split, lo0, inv0, cap0, lo1,
                                               inv1, base1, cap, n, out);
}

bool bounds_ok_i32(const std::int32_t* x, std::size_t n, std::int32_t limit) {
  return detail::active_table().bounds_ok_i32(x, n, limit);
}

}  // namespace basrpt::simd
