#include "matching/greedy.hpp"

#include <algorithm>

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

GreedyMatcher::Rec GreedyMatcher::rec_at(const double* score,
                                         const PortId* left,
                                         const PortId* right,
                                         std::uint32_t i) {
  return Rec{score[i], i, static_cast<std::uint16_t>(left[i]),
             static_cast<std::uint16_t>(right[i])};
}

bool GreedyMatcher::before(const Rec& a, const Rec& b,
                           const std::int64_t* payload) {
  if (a.score != b.score) {
    return a.score < b.score;
  }
  return payload[a.idx] < payload[b.idx];
}

void GreedyMatcher::sort_recs(std::vector<Rec>& recs,
                              const std::int64_t* payload) {
  std::sort(recs.begin(), recs.end(), [payload](const Rec& a, const Rec& b) {
    return before(a, b, payload);
  });
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

  recs_.resize(c);
  for (std::size_t k = 0; k < c; ++k) {
    recs_[k] = rec_at(score, left, right, changed[k]);
  }
  sort_recs(recs_, payload);

  // Merge from the back, so the kept prefix never needs a copy.
  order_.resize(n);
  std::size_t i = kept;
  std::size_t j = c;
  std::size_t out = n;
  while (j > 0) {
    const Rec& a = recs_[j - 1];
    if (i > 0) {
      const Rec& b = order_[i - 1];
      if (before(a, b, payload)) {
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
  BASRPT_ASSERT(simd::bounds_ok_i32(left, n, n_left),
                "ingress out of range");
  BASRPT_ASSERT(simd::bounds_ok_i32(right, n, n_right),
                "egress out of range");

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
      order_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        order_[i] = rec_at(score, left, right, static_cast<std::uint32_t>(i));
      }
      sort_recs(order_, payload);
      sort_phase.add_work(n);
    }
    source_ = changes.source;
    seq_ = changes.seq;
    n_left_ = n_left;
    n_right_ = n_right;
  }

  perf::ScopedPhase scan_phase(obs::Phase::kAcceptScan);
  scan_phase.add_work(accept_scan(payload, n_left, n_right, out));
}

std::size_t GreedyMatcher::accept_scan(const std::int64_t* payload,
                                       PortId n_left, PortId n_right,
                                       std::vector<std::int64_t>& out) {
  left_used_.assign(static_cast<std::size_t>(n_left), 0);
  right_used_.assign(static_cast<std::size_t>(n_right), 0);
  // No candidate can be accepted once every left (or every right) port
  // is taken, so the scan stops at max_accept winners — identical
  // selection, and on dense candidate sets most of the tail is skipped.
  const std::size_t max_accept =
      static_cast<std::size_t>(n_left < n_right ? n_left : n_right);
  std::size_t accepted = 0;

  // Raw local cursors keep the scan, the hottest loop here, in
  // registers: a range-for over the member vector gets its cursor
  // spilled to the stack, which measured 14-24% slower at 144+ ports.
  char* left_used = left_used_.data();
  char* right_used = right_used_.data();
  const Rec* const begin = order_.data();
  const Rec* const end = begin + order_.size();
  const Rec* e = begin;
  while (e != end) {
    const Rec& r = *e++;
    if (!left_used[r.left] && !right_used[r.right]) {
      left_used[r.left] = 1;
      right_used[r.right] = 1;
      out.push_back(payload[r.idx]);
      if (++accepted == max_accept) {
        break;
      }
    }
  }
  return static_cast<std::size_t>(e - begin);
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
