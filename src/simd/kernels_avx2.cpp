// AVX2 kernel variants (4-wide doubles). This TU is the only one
// compiled with -mavx2; everything else in the binary stays baseline
// x86-64 so a non-AVX2 host never executes these instructions (dispatch
// checks __builtin_cpu_supports first).
#if defined(BASRPT_SIMD_ENABLED)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "simd/kernels.hpp"

namespace basrpt::simd::detail {
namespace {

void compute_keys_avx2(KeyOp op, double p0, double p1, const double* sr,
                       const double* backlog, std::size_t n, double* out) {
  std::size_t i = 0;
  switch (op) {
    case KeyOp::kCopy:
      if (out != sr) std::memcpy(out, sr, n * sizeof(double));
      return;
    case KeyOp::kFastBasrpt: {
      const __m256d vp0 = _mm256_set1_pd(p0);
      for (; i + 4 <= n; i += 4) {
        const __m256d vsr = _mm256_loadu_pd(sr + i);
        const __m256d vb = _mm256_loadu_pd(backlog + i);
        // mul then sub, never FMA: matches the scalar reference bitwise.
        _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_mul_pd(vp0, vsr), vb));
      }
      for (; i < n; ++i) {
        const double prod = p0 * sr[i];
        out[i] = prod - backlog[i];
      }
      return;
    }
    case KeyOp::kThresholdSrpt: {
      const __m256d vp0 = _mm256_set1_pd(p0);
      const __m256d vp1 = _mm256_set1_pd(p1);
      for (; i + 4 <= n; i += 4) {
        const __m256d vsr = _mm256_loadu_pd(sr + i);
        const __m256d vb = _mm256_loadu_pd(backlog + i);
        const __m256d gt = _mm256_cmp_pd(vb, vp0, _CMP_GT_OQ);
        _mm256_storeu_pd(out + i,
                         _mm256_add_pd(vsr, _mm256_andnot_pd(gt, vp1)));
      }
      for (; i < n; ++i) {
        out[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1);
      }
      return;
    }
    case KeyOp::kNegBacklog: {
      const __m256d sign = _mm256_set1_pd(-0.0);
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i,
                         _mm256_xor_pd(_mm256_loadu_pd(backlog + i), sign));
      }
      for (; i < n; ++i) out[i] = -backlog[i];
      return;
    }
  }
}

void bucket_indexes_avx2(const double* x, double mn, double inv,
                         std::uint32_t cap, std::size_t n,
                         std::uint32_t* out) {
  // Both clamps in the double domain, matching the scalar reference.
  const __m256d vmn = _mm256_set1_pd(mn);
  const __m256d vinv = _mm256_set1_pd(inv);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vcap = _mm256_set1_pd(static_cast<double>(cap));
  const auto capd = static_cast<double>(cap);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), vmn), vinv);
    const __m128i b =
        _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(v, vzero), vcap));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), b);
  }
  for (; i < n; ++i) {
    const double scaled = (x[i] - mn) * inv;
    out[i] = static_cast<std::uint32_t>(
        std::min(std::max(scaled, 0.0), capd));
  }
}

void bucket_indexes_2piece_avx2(const double* x, double split, double lo0,
                                double inv0, std::uint32_t cap0, double lo1,
                                double inv1, std::uint32_t base1,
                                std::uint32_t cap, std::size_t n,
                                std::uint32_t* out) {
  const __m256d vsplit = _mm256_set1_pd(split);
  const __m256d vlo0 = _mm256_set1_pd(lo0);
  const __m256d vinv0 = _mm256_set1_pd(inv0);
  const __m256d vcap0 = _mm256_set1_pd(static_cast<double>(cap0));
  const __m256d vlo1 = _mm256_set1_pd(lo1);
  const __m256d vinv1 = _mm256_set1_pd(inv1);
  const __m256d vcap1 = _mm256_set1_pd(static_cast<double>(cap - base1));
  const __m256d vzero = _mm256_setzero_pd();
  const __m128i vbase1 = _mm_set1_epi32(static_cast<int>(base1));
  const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const auto cap0d = static_cast<double>(cap0);
  const auto cap1d = static_cast<double>(cap - base1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d in0 = _mm256_cmp_pd(v, vsplit, _CMP_LT_OQ);
    const __m256d s0 = _mm256_min_pd(
        _mm256_max_pd(_mm256_mul_pd(_mm256_sub_pd(v, vlo0), vinv0), vzero),
        vcap0);
    const __m256d s1 = _mm256_min_pd(
        _mm256_max_pd(_mm256_mul_pd(_mm256_sub_pd(v, vlo1), vinv1), vzero),
        vcap1);
    const __m128i b0 = _mm256_cvttpd_epi32(s0);
    const __m128i b1 = _mm_add_epi32(_mm256_cvttpd_epi32(s1), vbase1);
    // Narrow the 4x64 double mask to 4x32 int lanes (each 64-bit lane is
    // all-ones or all-zero, so its low dword carries the mask) and blend.
    const __m128i m = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(in0), pack));
    const __m128i blended = _mm_or_si128(_mm_and_si128(m, b0),
                                         _mm_andnot_si128(m, b1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), blended);
  }
  for (; i < n; ++i) {
    if (x[i] < split) {
      const double v = std::min(std::max((x[i] - lo0) * inv0, 0.0), cap0d);
      out[i] = static_cast<std::uint32_t>(v);
    } else {
      const double v = std::min(std::max((x[i] - lo1) * inv1, 0.0), cap1d);
      out[i] = base1 + static_cast<std::uint32_t>(v);
    }
  }
}

bool bounds_ok_i32_avx2(const std::int32_t* x, std::size_t n,
                        std::int32_t limit) {
  const __m256i vlimit = _mm256_set1_epi32(limit);
  const __m256i vzero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    // ok lane: 0 <= v (not v < 0) and v < limit.
    const __m256i ok = _mm256_andnot_si256(_mm256_cmpgt_epi32(vzero, v),
                                           _mm256_cmpgt_epi32(vlimit, v));
    if (_mm256_movemask_epi8(ok) != -1) return false;
  }
  for (; i < n; ++i) {
    if (x[i] < 0 || x[i] >= limit) return false;
  }
  return true;
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table{
      compute_keys_avx2,
      bucket_indexes_avx2,
      bucket_indexes_2piece_avx2,
      bounds_ok_i32_avx2,
  };
  return table;
}

}  // namespace basrpt::simd::detail

#endif  // BASRPT_SIMD_ENABLED
