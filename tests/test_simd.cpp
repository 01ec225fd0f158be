// Differential tests for the src/simd kernel variants and the dispatch
// layer: every ISA must be bit-identical to the scalar reference on
// NaN-free input, and scheduler decisions must not depend on which ISA
// is active.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sched/candidate_view.hpp"
#include "sched/factory.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

namespace basrpt::simd {
namespace {

/// Restores the process-wide active ISA when a test that overrides it
/// exits (tests run in one process; leaking an override would couple
/// them).
class IsaGuard {
 public:
  IsaGuard() : saved_(active_isa()) {}
  ~IsaGuard() { set_active_isa(saved_); }

 private:
  Isa saved_;
};

/// The ISA tables available on this build + CPU, scalar first.
std::vector<const detail::KernelTable*> available_tables() {
  std::vector<const detail::KernelTable*> tables{&detail::scalar_table()};
#if defined(BASRPT_SIMD_ENABLED)
  tables.push_back(&detail::sse2_table());
  if (best_supported_isa() == Isa::kAvx2) {
    tables.push_back(&detail::avx2_table());
  }
#endif
  return tables;
}

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

TEST(Kernels, ComputeKeysVariantsBitIdentical) {
  Rng rng(11);
  for (const std::size_t n : kLens) {
    const std::vector<double> sr = random_lane(rng, n);
    std::vector<double> backlog = random_lane(rng, n);
    for (auto& b : backlog) b = std::fabs(b);
    for (const KeyOp op : {KeyOp::kCopy, KeyOp::kFastBasrpt,
                           KeyOp::kThresholdSrpt, KeyOp::kNegBacklog}) {
      std::vector<double> ref(n), got(n);
      detail::scalar_table().compute_keys(op, 2500.0 / 144.0, 1e12, sr.data(),
                                          backlog.data(), n, ref.data());
      for (const auto* t : available_tables()) {
        t->compute_keys(op, 2500.0 / 144.0, 1e12, sr.data(), backlog.data(),
                        n, got.data());
        EXPECT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(double)), 0)
            << "op=" << static_cast<int>(op) << " n=" << n;
      }
    }
  }
}

TEST(Kernels, BucketIndexesVariantsBitIdentical) {
  Rng rng(14);
  for (const std::size_t n : kLens) {
    std::vector<double> x = random_lane(rng, n);
    // mn is a robust (sampled) bound: some values land below it and must
    // take the low clamp; the scale pushes others past the cap.
    const double mn = 0.0;
    const double inv = 1e-3;
    const std::uint32_t cap = 1023;
    std::vector<std::uint32_t> ref(n), got(n);
    detail::scalar_table().bucket_indexes(x.data(), mn, inv, cap, n,
                                          ref.data());
    for (const auto* t : available_tables()) {
      t->bucket_indexes(x.data(), mn, inv, cap, n, got.data());
      EXPECT_EQ(ref, got) << "n=" << n;
    }
  }
}

TEST(Kernels, BucketIndexes2PieceVariantsBitIdentical) {
  Rng rng(15);
  for (const std::size_t n : kLens) {
    std::vector<double> x(n);
    for (auto& v : x) {
      // Bimodal: a low cluster and a high cluster an offset apart, plus
      // outliers outside both sampled ranges to hit the clamps.
      v = rng.uniform(0.0, 1e6) + (rng.bernoulli(0.5) ? 0.0 : 1e12);
      if (rng.bernoulli(0.05)) {
        v = rng.bernoulli(0.5) ? -5e5 : 2e12;
      }
    }
    const double split = 1e12;
    const std::uint32_t cap = 2047;
    const std::uint32_t base1 = 1024;
    const double inv0 = static_cast<double>(base1) / 1e6;
    const double inv1 = static_cast<double>(cap + 1 - base1) / 1e6;
    std::vector<std::uint32_t> ref(n), got(n);
    detail::scalar_table().bucket_indexes_2piece(
        x.data(), split, 0.0, inv0, base1 - 1, split, inv1, base1, cap, n,
        ref.data());
    for (const auto* t : available_tables()) {
      t->bucket_indexes_2piece(x.data(), split, 0.0, inv0, base1 - 1, split,
                               inv1, base1, cap, n, got.data());
      EXPECT_EQ(ref, got) << "n=" << n;
    }
    // The map must be monotone in the input for every variant.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
    for (std::size_t k = 1; k < n; ++k) {
      EXPECT_LE(ref[order[k - 1]], ref[order[k]]);
    }
  }
}

TEST(Kernels, BoundsOkI32VariantsAgree) {
  for (const std::size_t n : kLens) {
    std::vector<std::int32_t> x(n, 7);
    for (const auto* t : available_tables()) {
      EXPECT_TRUE(t->bounds_ok_i32(x.data(), n, 8));
      EXPECT_FALSE(t->bounds_ok_i32(x.data(), n, 7));  // v == limit
    }
    // A single violation at every position (covers vector body lanes and
    // the scalar tail), negative and too-large.
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (const std::int32_t bad : {-1, 8, 1 << 30}) {
        x[pos] = bad;
        for (const auto* t : available_tables()) {
          EXPECT_FALSE(t->bounds_ok_i32(x.data(), n, 8))
              << "pos=" << pos << " bad=" << bad;
        }
        x[pos] = 7;
      }
    }
  }
}

TEST(Dispatch, ActiveIsaOverrideRoundTrips) {
  IsaGuard guard;
  set_active_isa(Isa::kScalar);
  EXPECT_EQ(active_isa(), Isa::kScalar);
  set_active_isa(best_supported_isa());
  EXPECT_EQ(active_isa(), best_supported_isa());
}

TEST(Dispatch, IsaNamesAreStable) {
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kSse2), "sse2");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
}

// ------------------------------------------------- scheduler differential

/// Builds a randomized candidate set as SoA lanes. Shapes stress the
/// matcher's sorters: near-sorted scores, exact ties with ±0.0, and a
/// bimodal threshold-style spread (2-piece bucket map).
sched::CandidateSoA make_grid(Rng& rng, std::size_t n, sched::PortId ports,
                              int shape) {
  sched::CandidateSoA soa;
  soa.with_arrival = true;
  soa.resize_lanes(n);
  for (std::size_t k = 0; k < n; ++k) {
    soa.ingress[k] = static_cast<sched::PortId>(
        rng.uniform_int(0, ports - 1));
    soa.egress[k] = static_cast<sched::PortId>(rng.uniform_int(0, ports - 1));
    soa.backlog[k] = rng.bernoulli(0.5) ? rng.uniform(0.0, 2e3)
                                        : rng.uniform(0.0, 5e5);
    soa.shortest_flow[k] = static_cast<queueing::FlowId>(k);  // distinct
    double sr = rng.uniform(0.0, 1e6);
    if (rng.bernoulli(0.1)) {
      sr = static_cast<double>(rng.uniform_int(0, 4)) * 1500.0;  // ties
    }
    if (rng.bernoulli(0.02)) {
      sr = rng.bernoulli(0.5) ? 0.0 : -0.0;
    }
    soa.shortest_remaining[k] = sr;
    soa.oldest_flow[k] = static_cast<queueing::FlowId>(k);
    soa.oldest_arrival[k] = rng.uniform(0.0, 10.0);
  }
  if (shape == 1) {
    // Near-sorted: ascending scores with a few adjacent swaps.
    std::sort(soa.shortest_remaining.begin(), soa.shortest_remaining.end());
    for (int p = 0; p < 3 && n > 8; ++p) {
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform_int(1, n - 1));
      std::swap(soa.shortest_remaining[at], soa.shortest_remaining[at - 1]);
    }
  }
  return soa;
}

TEST(Dispatch, SchedulerDecisionsIdenticalAcrossIsas) {
  if (!compiled_with_simd() || best_supported_isa() == Isa::kScalar) {
    GTEST_SKIP() << "no vector ISA available";
  }
  IsaGuard guard;
  const sched::PortId ports = 24;
  const char* specs[] = {"srpt", "fast-basrpt:v=2500",
                         "threshold-srpt:threshold=2000", "maxweight",
                         "fifo"};
  Rng rng(21);
  for (const char* spec_text : specs) {
    auto scheduler =
        sched::make_scheduler(sched::SchedulerSpec::parse(spec_text));
    for (int shape = 0; shape < 2; ++shape) {
      for (const std::size_t n : {3ul, 200ul, 3000ul}) {
        const sched::CandidateSoA soa = make_grid(rng, n, ports, shape);
        const sched::CandidateView view = soa.view();
        set_active_isa(Isa::kScalar);
        const sched::Decision scalar = scheduler->decide(ports, view);
        set_active_isa(best_supported_isa());
        const sched::Decision native = scheduler->decide(ports, view);
        EXPECT_EQ(scalar.selected, native.selected)
            << spec_text << " shape=" << shape << " n=" << n;
      }
    }
  }
}

TEST(Dispatch, DecideBatchMatchesLoopedDecideIntoAcrossIsas) {
  IsaGuard guard;
  const sched::PortId ports = 16;
  auto scheduler = sched::make_scheduler(sched::SchedulerSpec::srpt());
  Rng rng(22);
  std::vector<sched::CandidateSoA> soas;
  std::vector<sched::CandidateView> views;
  for (int b = 0; b < 5; ++b) {
    soas.push_back(make_grid(rng, 150 + 37 * b, ports, b % 2));
  }
  for (const auto& soa : soas) {
    views.push_back(soa.view());
  }
  std::vector<sched::Decision> batch(views.size());
  scheduler->decide_batch(ports, views.data(), views.size(), batch.data());
  for (std::size_t k = 0; k < views.size(); ++k) {
    EXPECT_EQ(batch[k].selected, scheduler->decide(ports, views[k]).selected);
  }
}

}  // namespace
}  // namespace basrpt::simd
