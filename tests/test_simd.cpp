// Tests for the src/simd kernels: each kernel must equal its
// per-element reference expression on NaN-free input, at every lane
// length the vectorized loop bodies and their tails can take.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

namespace basrpt::simd {
namespace {

/// Lane lengths that cover the vector bodies (2-, 4- and 8-wide) plus
/// every tail remainder.
const std::size_t kLens[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 257};

std::vector<double> random_lane(Rng& rng, std::size_t n) {
  std::vector<double> x(n);
  for (auto& v : x) {
    const auto pick = rng.uniform_int(0, 9);
    if (pick == 0) {
      v = rng.bernoulli(0.5) ? 0.0 : -0.0;
    } else if (pick == 1) {
      v = static_cast<double>(rng.uniform_int(-4, 4)) * 1500.0;  // ties
    } else {
      v = rng.uniform(-1e9, 1e9);
    }
  }
  return x;
}

/// compute_keys_at over every position but each third must write the
/// bits `want` holds there and leave the skipped positions alone.
void expect_keys_at(KeyOp op, double p0, double p1,
                    const std::vector<double>& sr,
                    const std::vector<double>& backlog,
                    const std::vector<double>& want) {
  const std::size_t n = sr.size();
  std::vector<std::uint32_t> at;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 != 1) {
      at.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<double> got(n, 7.0);
  compute_keys_at(op, p0, p1, sr.data(), backlog.data(), at.data(),
                  at.size(), got.data());
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = i % 3 != 1 ? want[i] : 7.0;
    EXPECT_EQ(std::memcmp(&expected, &got[i], sizeof(double)), 0)
        << "compute_keys_at n=" << n << " i=" << i;
  }
}

TEST(Kernels, ComputeKeysVariantsBitIdentical) {
  // Both key ops, over every position and over listed positions,
  // compared with memcmp so a -0.0 where +0.0 belongs fails too.
  Rng rng(11);
  const double p0 = 2500.0 / 144.0;
  const double p1 = 1e12;
  for (const std::size_t n : kLens) {
    const std::vector<double> sr = random_lane(rng, n);
    std::vector<double> backlog = random_lane(rng, n);
    for (auto& b : backlog) {
      b = rng.bernoulli(0.1) ? p0 : std::fabs(b);  // ties at the threshold
    }
    std::vector<double> want(n), got(n);

    for (std::size_t i = 0; i < n; ++i) {
      // volatile keeps the reference from fusing into an FMA on targets
      // that have one; the kernel is built with -ffp-contract=off.
      const volatile double prod = p0 * sr[i];
      want[i] = prod - backlog[i];
    }
    compute_keys(KeyOp::kFastBasrpt, p0, p1, sr.data(), backlog.data(), n,
                 got.data());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)), 0)
        << "fast-basrpt n=" << n;
    expect_keys_at(KeyOp::kFastBasrpt, p0, p1, sr, backlog, want);

    for (std::size_t i = 0; i < n; ++i) {
      want[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1);
    }
    compute_keys(KeyOp::kThresholdSrpt, p0, p1, sr.data(), backlog.data(), n,
                 got.data());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)), 0)
        << "threshold-srpt n=" << n;
    expect_keys_at(KeyOp::kThresholdSrpt, p0, p1, sr, backlog, want);
  }
}

TEST(Kernels, BoundsOkI32VariantsAgree) {
  const std::int32_t limit = 8;
  for (const std::size_t n : kLens) {
    std::vector<std::int32_t> x(n, 0);
    EXPECT_TRUE(bounds_ok_i32(x.data(), n, limit));
    std::fill(x.begin(), x.end(), limit - 1);
    EXPECT_TRUE(bounds_ok_i32(x.data(), n, limit));
    EXPECT_FALSE(bounds_ok_i32(x.data(), n, limit - 1));  // v == limit
    // A single violation at every position (covers vector body lanes and
    // the tail): negative, the limit itself, far too large, and the
    // most negative value.
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (const std::int32_t bad :
           {-1, limit, 1 << 30, std::numeric_limits<std::int32_t>::min()}) {
        x[pos] = bad;
        EXPECT_FALSE(bounds_ok_i32(x.data(), n, limit))
            << "pos=" << pos << " bad=" << bad;
        x[pos] = limit - 1;
      }
    }
  }
}

TEST(Dispatch, IsaNamesAreStable) {
  EXPECT_EQ(active_isa(), Isa::kScalar);
  EXPECT_STREQ(isa_name(active_isa()), "scalar");
}

}  // namespace
}  // namespace basrpt::simd
