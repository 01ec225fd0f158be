// SSE2 kernel variants (2-wide doubles). Compiled only when
// BASRPT_SIMD_ENABLED; SSE2 is baseline on x86-64 so no extra target
// flags are needed.
#if defined(BASRPT_SIMD_ENABLED)

#include <emmintrin.h>

#include <algorithm>
#include <cstring>

#include "simd/kernels.hpp"

namespace basrpt::simd::detail {
namespace {

void compute_keys_sse2(KeyOp op, double p0, double p1, const double* sr,
                       const double* backlog, std::size_t n, double* out) {
  std::size_t i = 0;
  switch (op) {
    case KeyOp::kCopy:
      if (out != sr) std::memcpy(out, sr, n * sizeof(double));
      return;
    case KeyOp::kFastBasrpt: {
      const __m128d vp0 = _mm_set1_pd(p0);
      for (; i + 2 <= n; i += 2) {
        const __m128d vsr = _mm_loadu_pd(sr + i);
        const __m128d vb = _mm_loadu_pd(backlog + i);
        _mm_storeu_pd(out + i, _mm_sub_pd(_mm_mul_pd(vp0, vsr), vb));
      }
      for (; i < n; ++i) {
        const double prod = p0 * sr[i];
        out[i] = prod - backlog[i];
      }
      return;
    }
    case KeyOp::kThresholdSrpt: {
      const __m128d vp0 = _mm_set1_pd(p0);
      const __m128d vp1 = _mm_set1_pd(p1);
      for (; i + 2 <= n; i += 2) {
        const __m128d vsr = _mm_loadu_pd(sr + i);
        const __m128d vb = _mm_loadu_pd(backlog + i);
        // backlog > p0 -> add 0.0, else add p1.
        const __m128d gt = _mm_cmpgt_pd(vb, vp0);
        _mm_storeu_pd(out + i, _mm_add_pd(vsr, _mm_andnot_pd(gt, vp1)));
      }
      for (; i < n; ++i) {
        out[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1);
      }
      return;
    }
    case KeyOp::kNegBacklog: {
      const __m128d sign = _mm_set1_pd(-0.0);
      for (; i + 2 <= n; i += 2) {
        _mm_storeu_pd(out + i, _mm_xor_pd(_mm_loadu_pd(backlog + i), sign));
      }
      for (; i < n; ++i) out[i] = -backlog[i];
      return;
    }
  }
}

void bucket_indexes_sse2(const double* x, double mn, double inv,
                         std::uint32_t cap, std::size_t n,
                         std::uint32_t* out) {
  // Both clamps are applied in the double domain where SSE2 has min/max
  // (min(trunc(v), cap) == trunc(min(v, (double)cap)) for v >= 0).
  const __m128d vmn = _mm_set1_pd(mn);
  const __m128d vinv = _mm_set1_pd(inv);
  const __m128d vzero = _mm_setzero_pd();
  const __m128d vcap = _mm_set1_pd(static_cast<double>(cap));
  const auto capd = static_cast<double>(cap);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_mul_pd(_mm_sub_pd(_mm_loadu_pd(x + i), vmn), vinv);
    const __m128i b =
        _mm_cvttpd_epi32(_mm_min_pd(_mm_max_pd(v, vzero), vcap));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), b);
  }
  for (; i < n; ++i) {
    const double scaled = (x[i] - mn) * inv;
    out[i] = static_cast<std::uint32_t>(
        std::min(std::max(scaled, 0.0), capd));
  }
}

void bucket_indexes_2piece_sse2(const double* x, double split, double lo0,
                                double inv0, std::uint32_t cap0, double lo1,
                                double inv1, std::uint32_t base1,
                                std::uint32_t cap, std::size_t n,
                                std::uint32_t* out) {
  const __m128d vsplit = _mm_set1_pd(split);
  const __m128d vlo0 = _mm_set1_pd(lo0);
  const __m128d vinv0 = _mm_set1_pd(inv0);
  const __m128d vcap0 = _mm_set1_pd(static_cast<double>(cap0));
  const __m128d vlo1 = _mm_set1_pd(lo1);
  const __m128d vinv1 = _mm_set1_pd(inv1);
  const __m128d vcap1 = _mm_set1_pd(static_cast<double>(cap - base1));
  const __m128d vzero = _mm_setzero_pd();
  const __m128i vbase1 = _mm_set1_epi32(static_cast<int>(base1));
  const auto cap0d = static_cast<double>(cap0);
  const auto cap1d = static_cast<double>(cap - base1);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_loadu_pd(x + i);
    const __m128d in0 = _mm_cmplt_pd(v, vsplit);
    const __m128d s0 = _mm_min_pd(
        _mm_max_pd(_mm_mul_pd(_mm_sub_pd(v, vlo0), vinv0), vzero), vcap0);
    const __m128d s1 = _mm_min_pd(
        _mm_max_pd(_mm_mul_pd(_mm_sub_pd(v, vlo1), vinv1), vzero), vcap1);
    const __m128i b0 = _mm_cvttpd_epi32(s0);
    const __m128i b1 = _mm_add_epi32(_mm_cvttpd_epi32(s1), vbase1);
    // Narrow the 2-wide double mask to the low 2 int lanes and blend.
    const __m128i m =
        _mm_shuffle_epi32(_mm_castpd_si128(in0), _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i b = _mm_or_si128(_mm_and_si128(m, b0),
                                   _mm_andnot_si128(m, b1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), b);
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

bool bounds_ok_i32_sse2(const std::int32_t* x, std::size_t n,
                        std::int32_t limit) {
  const __m128i vlimit = _mm_set1_epi32(limit);
  const __m128i vzero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    // ok lane: 0 <= v (not v < 0) and v < limit.
    const __m128i ok = _mm_andnot_si128(_mm_cmplt_epi32(v, vzero),
                                        _mm_cmplt_epi32(v, vlimit));
    if (_mm_movemask_epi8(ok) != 0xffff) return false;
  }
  for (; i < n; ++i) {
    if (x[i] < 0 || x[i] >= limit) return false;
  }
  return true;
}

}  // namespace

const KernelTable& sse2_table() {
  static const KernelTable table{
      compute_keys_sse2,
      bucket_indexes_sse2,
      bucket_indexes_2piece_sse2,
      bounds_ok_i32_sse2,
  };
  return table;
}

}  // namespace basrpt::simd::detail

#endif  // BASRPT_SIMD_ENABLED
