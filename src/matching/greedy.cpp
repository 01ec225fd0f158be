#include "matching/greedy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/assert.hpp"
#include "perf/profiler.hpp"
#include "simd/kernels.hpp"

namespace basrpt::matching {

GreedyResult greedy_maximal(std::vector<ScoredCandidate> candidates,
                            PortId n_left, PortId n_right) {
  BASRPT_ASSERT(n_left > 0 && n_right > 0, "port counts must be positive");

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const ScoredCandidate& a, const ScoredCandidate& b) {
                     if (a.score != b.score) {
                       return a.score < b.score;
                     }
                     return a.payload < b.payload;
                   });

  GreedyResult result;
  result.matching.match_of_left.assign(static_cast<std::size_t>(n_left),
                                       kUnmatched);
  std::vector<bool> right_used(static_cast<std::size_t>(n_right), false);

  for (const ScoredCandidate& c : candidates) {
    BASRPT_ASSERT(c.left >= 0 && c.left < n_left, "ingress out of range");
    BASRPT_ASSERT(c.right >= 0 && c.right < n_right, "egress out of range");
    auto& slot = result.matching.match_of_left[static_cast<std::size_t>(c.left)];
    if (slot == kUnmatched && !right_used[static_cast<std::size_t>(c.right)]) {
      slot = c.right;
      right_used[static_cast<std::size_t>(c.right)] = true;
      result.selected_payloads.push_back(c.payload);
    }
  }
  return result;
}

namespace {

/// Maps a double to a 32-bit key whose integer order matches the
/// double's numeric order coarsened to the top 32 bits: flip all bits
/// of negatives, flip only the sign bit of non-negatives, keep the
/// sign, exponent and top 20 mantissa bits. Distinct scores may
/// collide (the fixup pass resolves those runs exactly); equal scores
/// always map to equal keys — -0.0 is first collapsed onto +0.0 so the
/// payload tie-break fires exactly where the comparison path's would.
std::uint32_t coarse_score_key(double score) {
  if (score == 0.0) {
    score = 0.0;  // normalizes -0.0
  }
  std::uint64_t bits;
  std::memcpy(&bits, &score, sizeof(bits));
  const std::uint64_t full = (bits & 0x8000000000000000ull) != 0
                                 ? ~bits
                                 : bits | 0x8000000000000000ull;
  return static_cast<std::uint32_t>(full >> 32);
}

/// 8-bit LSD digits, four passes over the 32-bit key. 256 bins keep
/// the scatter's active write lines (one per bin) inside L1; wider
/// digits save a pass but thrash the cache and measure slower.
constexpr std::uint32_t kRadixBits = 8;
constexpr std::uint32_t kRadixBins = 1u << kRadixBits;
constexpr std::uint32_t kRadixMask = kRadixBins - 1;
constexpr std::size_t kRadixPasses = 4;

/// Bucket-sort tuning. Half a bucket per candidate (power of two,
/// clamped) spreads a uniform-in-value score distribution to ~2 records
/// per bucket; the insertion sweep then pays O(n), and the histogram +
/// prefix pass touches half the bucket array a full-size table would.
/// Buckets the distribution overloads past kBigBucket records are
/// pre-sorted outright — the sweep's quadratic-in-run cost never sees a
/// long run.
constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = 16384;
constexpr std::uint32_t kBigBucket = 32;

/// Strided sample size for fitting the bucket map. 128 sorted samples
/// locate the bulk of the distribution (outliers the sample misses just
/// clamp into the edge buckets) and expose a dominant gap when the
/// scores are bimodal.
constexpr std::size_t kSampleCount = 128;

/// Per-piece map slope: buckets / sample range. A degenerate piece (all
/// sampled values equal) gets slope 1.0 — any finite positive slope is
/// valid, the clamps keep the map monotone — so the kernels never see a
/// 0 * inf = NaN. A subnormal-range piece whose slope overflows is
/// rejected by returning 0.0 (caller falls back to radix).
double piece_slope(double range, double buckets) {
  if (range <= 0.0) {
    return 1.0;
  }
  const double inv = buckets / range;
  if (!std::isfinite(inv) || inv <= 0.0) {
    return 0.0;
  }
  return inv;
}

}  // namespace

bool GreedyMatcher::sort_recs_bucket(const double* score, const PortId* left,
                                     const PortId* right,
                                     const std::int64_t* payload,
                                     std::size_t n, std::vector<Rec>& recs) {
  // Fit the map to a sorted strided sample instead of a full min/max
  // scan: the sample bounds are robust enough (clamps catch what it
  // misses), and the sorted sample's largest adjacent gap tells us
  // whether one linear piece suffices or the distribution is bimodal
  // (threshold-SRPT keys sit in two clusters a class offset apart, which
  // would pile every record into two buckets of a single-piece map).
  samples_.resize(kSampleCount);
  for (std::size_t i = 0; i < kSampleCount; ++i) {
    samples_[i] = score[i * n / kSampleCount];
  }
  std::sort(samples_.begin(), samples_.end());
  const double slo = samples_.front();
  const double shi = samples_.back();
  const double range = shi - slo;
  if (!(std::isfinite(range) && range > 0.0)) {
    return false;  // all-equal sample or overflowing spread
  }

  const auto nb = static_cast<std::uint32_t>(std::clamp<std::size_t>(
      std::bit_ceil(n) / 2, kMinBuckets, kMaxBuckets));

  std::size_t gap_at = 0;
  double gap = 0.0;
  for (std::size_t i = 0; i + 1 < kSampleCount; ++i) {
    const double g = samples_[i + 1] - samples_[i];
    if (g > gap) {
      gap = g;
      gap_at = i;
    }
  }

  bidx_.resize(n);
  if (gap >= 0.5 * range) {
    // Two clusters separated by a dominant gap: give each its own
    // linear piece, with buckets split in proportion to the sample mass
    // on each side. cap0 < base1 <= cap keeps the map monotone.
    const std::size_t lo_mass = gap_at + 1;
    const double lo0 = slo;
    const double hi0 = samples_[gap_at];
    const double lo1 = samples_[gap_at + 1];
    const double hi1 = shi;
    const auto base1 = static_cast<std::uint32_t>(std::clamp<std::size_t>(
        (static_cast<std::size_t>(nb) * lo_mass) / kSampleCount, 1,
        static_cast<std::size_t>(nb) - 1));
    const double inv0 =
        piece_slope(hi0 - lo0, static_cast<double>(base1));
    const double inv1 =
        piece_slope(hi1 - lo1, static_cast<double>(nb - base1));
    if (inv0 == 0.0 || inv1 == 0.0) {
      return false;
    }
    simd::bucket_indexes_2piece(score, lo1, lo0, inv0, base1 - 1, lo1, inv1,
                                base1, nb - 1, n, bidx_.data());
  } else {
    const double inv = piece_slope(range, static_cast<double>(nb));
    if (inv == 0.0) {
      return false;
    }
    simd::bucket_indexes(score, slo, inv, nb - 1, n, bidx_.data());
  }

  hist_.assign(nb, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++hist_[bidx_[i]];
  }

  std::uint32_t sum = 0;
  std::uint32_t maxb = 0;
  for (std::uint32_t b = 0; b < nb; ++b) {
    const std::uint32_t count = hist_[b];
    if (count > maxb) {
      maxb = count;
    }
    hist_[b] = sum;  // becomes the scatter's write cursor
    sum += count;
  }
  // A distribution the piecewise map still cannot spread (heavy
  // duplicate mass, log-spread scores) piles most records into a few
  // buckets and the sort degenerates to comparison sorting those piles —
  // radix handles that shape in guaranteed linear passes instead.
  if (maxb > n / 4) {
    return false;
  }

  // Bucket boundaries are only needed to pre-sort overloaded buckets;
  // the usual spread-out case (every bucket <= kBigBucket) skips the
  // starts_ pass entirely — the insertion sweep needs no boundaries.
  const bool any_big = maxb > kBigBucket;
  if (any_big) {
    starts_.resize(nb + 1);
    for (std::uint32_t b = 0; b < nb; ++b) {
      starts_[b] = hist_[b];
    }
    starts_[nb] = sum;
  }

  recs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    recs[hist_[bidx_[i]]++] =
        Rec{score[i], static_cast<std::uint32_t>(i),
            static_cast<std::uint16_t>(left[i]),
            static_cast<std::uint16_t>(right[i])};
  }

  const auto less = [&](const Rec& a, const Rec& b) {
    if (a.score != b.score) {
      return a.score < b.score;
    }
    return payload[a.idx] < payload[b.idx];
  };

  if (any_big) {
    for (std::uint32_t b = 0; b < nb; ++b) {
      if (starts_[b + 1] - starts_[b] > kBigBucket) {
        std::sort(recs.begin() + starts_[b], recs.begin() + starts_[b + 1],
                  less);
      }
    }
  }

  // The piecewise map is monotone and equal scores share a bucket, so
  // every remaining inversion is intra-bucket: one adaptive insertion
  // sweep costs O(n + inversions) and lands the exact (score, payload)
  // order.
  for (std::size_t i = 1; i < n; ++i) {
    if (!less(recs[i], recs[i - 1])) {
      continue;
    }
    const Rec t = recs[i];
    std::size_t j = i;
    do {
      recs[j] = recs[j - 1];
      --j;
    } while (j > 0 && less(t, recs[j - 1]));
    recs[j] = t;
  }
  return true;
}

void GreedyMatcher::sort_recs_radix(const double* score,
                                    const std::int64_t* payload,
                                    const PortId* left, const PortId* right,
                                    std::size_t n) {
  rrecs_a_.resize(n);
  rrecs_b_.resize(n);

  // Build the records and all four digit histograms in one pass.
  std::uint32_t hist[kRadixPasses][kRadixBins];
  std::memset(hist, 0, sizeof(hist));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t key = coarse_score_key(score[i]);
    rrecs_a_[i] = {key, static_cast<std::uint16_t>(left[i]),
                   static_cast<std::uint16_t>(right[i]),
                   static_cast<std::uint32_t>(i)};
    ++hist[0][key & kRadixMask];
    ++hist[1][(key >> kRadixBits) & kRadixMask];
    ++hist[2][(key >> (2 * kRadixBits)) & kRadixMask];
    ++hist[3][key >> (3 * kRadixBits)];
  }

  // LSD passes; a digit position where all keys agree permutes nothing
  // and is skipped (scores from one decision often share sign and
  // exponent range, so a pass or two usually vanishes).
  RadixRec* src = rrecs_a_.data();
  RadixRec* dst = rrecs_b_.data();
  for (std::size_t p = 0; p < kRadixPasses; ++p) {
    std::uint32_t* h = hist[p];
    bool trivial = false;
    for (std::size_t v = 0; v < kRadixBins; ++v) {
      if (h[v] == n) {
        trivial = true;
        break;
      }
      if (h[v] != 0) {
        break;
      }
    }
    if (trivial) {
      continue;
    }
    std::uint32_t sum = 0;
    for (std::size_t v = 0; v < kRadixBins; ++v) {
      const std::uint32_t count = h[v];
      h[v] = sum;
      sum += count;
    }
    const std::uint32_t shift = static_cast<std::uint32_t>(p) * kRadixBits;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t v = (src[i].key >> shift) & kRadixMask;
      dst[h[v]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != rrecs_a_.data()) {
    rrecs_a_.swap(rrecs_b_);
  }

  // Radix LSD is stable, so equal-coarse-key runs are in original
  // candidate order — but the contract is exact (score, payload) order,
  // and a coarse key can collide for distinct scores. Re-sort each run
  // with the full comparator; runs are rare and short in practice.
  for (std::size_t i = 0; i + 1 < n;) {
    std::size_t j = i + 1;
    while (j < n && rrecs_a_[j].key == rrecs_a_[i].key) {
      ++j;
    }
    if (j - i > 1) {
      std::sort(rrecs_a_.begin() + static_cast<std::ptrdiff_t>(i),
                rrecs_a_.begin() + static_cast<std::ptrdiff_t>(j),
                [&](const RadixRec& a, const RadixRec& b) {
                  const double sa = score[a.idx];
                  const double sb = score[b.idx];
                  if (sa != sb) {
                    return sa < sb;
                  }
                  return payload[a.idx] < payload[b.idx];
                });
    }
    i = j;
  }
}

void GreedyMatcher::sort_recs(const double* score, const PortId* left,
                              const PortId* right,
                              const std::int64_t* payload, std::size_t n,
                              std::vector<Rec>& recs) {
  if (n < kRadixThreshold) {
    recs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      recs[i] = Rec{score[i], static_cast<std::uint32_t>(i),
                    static_cast<std::uint16_t>(left[i]),
                    static_cast<std::uint16_t>(right[i])};
    }
    std::sort(recs.begin(), recs.end(), [&](const Rec& a, const Rec& b) {
      if (a.score != b.score) {
        return a.score < b.score;
      }
      return payload[a.idx] < payload[b.idx];
    });
  } else if (!sort_recs_bucket(score, left, right, payload, n, recs)) {
    sort_recs_radix(score, payload, left, right, n);
    recs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const RadixRec& e = rrecs_a_[i];
      recs[i] = Rec{score[e.idx], e.idx, e.left, e.right};
    }
  }
}

std::size_t GreedyMatcher::update_order(const double* score,
                                        const PortId* left,
                                        const PortId* right,
                                        const std::int64_t* payload,
                                        std::size_t n,
                                        const LaneChanges& changes) {
  const std::uint32_t* changed = changes.changed;
  const std::size_t c = changes.changed_count;
  if (stale_.size() < n) {
    stale_.resize(n, 0);
  }
  for (std::size_t k = 0; k < c; ++k) {
    BASRPT_ASSERT(changed[k] < n, "changed position out of range");
  }
  for (std::size_t k = 0; k < c; ++k) {
    stale_[changed[k]] = 1;
  }
  std::size_t kept = 0;
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const Rec r = order_[k];
    if (r.idx < n && stale_[r.idx] == 0) {
      order_[kept++] = r;
    }
  }
  for (std::size_t k = 0; k < c; ++k) {
    stale_[changed[k]] = 0;
  }
  order_.resize(kept);
  BASRPT_ASSERT(kept + c == n, "lane changes do not cover the view");
  if (c == 0) {
    return 0;
  }

  // Sort the changed entries as contiguous lanes, then point their
  // records back at the view's positions.
  score_s_.resize(c);
  left_s_.resize(c);
  right_s_.resize(c);
  payload_s_.resize(c);
  for (std::size_t k = 0; k < c; ++k) {
    const std::uint32_t p = changed[k];
    score_s_[k] = score[p];
    left_s_[k] = left[p];
    right_s_[k] = right[p];
    payload_s_[k] = payload[p];
  }
  sort_recs(score_s_.data(), left_s_.data(), right_s_.data(),
            payload_s_.data(), c, recs_);
  for (Rec& r : recs_) {
    r.idx = changed[r.idx];
  }

  // Merge from the back, so the kept prefix never needs a copy.
  order_.resize(n);
  std::size_t i = kept;
  std::size_t j = c;
  std::size_t out = n;
  while (j > 0) {
    const Rec& a = recs_[j - 1];
    if (i > 0) {
      const Rec& b = order_[i - 1];
      if (a.score < b.score ||
          (a.score == b.score && payload[a.idx] < payload[b.idx])) {
        order_[--out] = order_[--i];
        continue;
      }
    }
    order_[--out] = recs_[--j];
  }
  return c;
}

void GreedyMatcher::match_lanes_into(const double* score, const PortId* left,
                                     const PortId* right,
                                     const std::int64_t* payload,
                                     std::size_t n, PortId n_left,
                                     PortId n_right,
                                     std::vector<std::int64_t>& out) {
  match_lanes_into(score, left, right, payload, n, n_left, n_right,
                   LaneChanges{}, out);
}

void GreedyMatcher::match_lanes_into(const double* score, const PortId* left,
                                     const PortId* right,
                                     const std::int64_t* payload,
                                     std::size_t n, PortId n_left,
                                     PortId n_right,
                                     const LaneChanges& changes,
                                     std::vector<std::int64_t>& out) {
  BASRPT_ASSERT(n_left > 0 && n_right > 0, "port counts must be positive");
  BASRPT_ASSERT(n_left <= 0xffff && n_right <= 0xffff,
                "port counts must fit the 16-bit sort record fields");
  out.clear();
  left_used_.assign(static_cast<std::size_t>(n_left), 0);
  right_used_.assign(static_cast<std::size_t>(n_right), 0);
  BASRPT_ASSERT(simd::bounds_ok_i32(left, n, n_left),
                "ingress out of range");
  BASRPT_ASSERT(simd::bounds_ok_i32(right, n, n_right),
                "egress out of range");

  // No candidate can be accepted once every left (or every right) port
  // is taken, so the scan stops at max_accept winners — identical
  // selection, and on dense candidate sets most of the tail is skipped.
  const std::size_t max_accept =
      static_cast<std::size_t>(n_left < n_right ? n_left : n_right);
  std::size_t accepted = 0;

  {
    perf::ScopedPhase sort_phase(obs::Phase::kMatchSort);
    const bool chained = changes.source != 0 && changes.source == source_ &&
                         (changes.seq == seq_ || changes.seq == seq_ + 1) &&
                         n_left == n_left_ && n_right == n_right_;
    source_ = 0;  // until order_ matches these lanes again
    if (chained) {
      // The same refresh seen again carries no new changes.
      sort_phase.add_work(update_order(
          score, left, right, payload, n,
          changes.seq == seq_ ? LaneChanges{} : changes));
    } else {
      sort_recs(score, left, right, payload, n, order_);
      sort_phase.add_work(n);
    }
    source_ = changes.source;
    seq_ = changes.seq;
    n_left_ = n_left;
    n_right_ = n_right;
  }

  // Raw local cursors keep the scan, the hottest loop here, in
  // registers: a range-for over the member vector gets its cursor
  // spilled to the stack, which measured 14-24% slower at 144+ ports.
  char* left_used = left_used_.data();
  char* right_used = right_used_.data();
  const Rec* end = order_.data() + order_.size();
  for (const Rec* e = order_.data(); e != end; ++e) {
    if (!left_used[e->left] && !right_used[e->right]) {
      left_used[e->left] = 1;
      right_used[e->right] = 1;
      out.push_back(payload[e->idx]);
      if (++accepted == max_accept) {
        break;
      }
    }
  }
}

void GreedyMatcher::match_into(const std::vector<ScoredCandidate>& candidates,
                               PortId n_left, PortId n_right,
                               std::vector<std::int64_t>& out) {
  const std::size_t n = candidates.size();
  score_s_.resize(n);
  left_s_.resize(n);
  right_s_.resize(n);
  payload_s_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ScoredCandidate& c = candidates[i];
    score_s_[i] = c.score;
    left_s_[i] = c.left;
    right_s_[i] = c.right;
    payload_s_[i] = c.payload;
  }
  match_lanes_into(score_s_.data(), left_s_.data(), right_s_.data(),
                   payload_s_.data(), n, n_left, n_right, out);
}

}  // namespace basrpt::matching
