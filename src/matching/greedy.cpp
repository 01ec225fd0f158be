#include "matching/greedy.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "perf/profiler.hpp"
#include "simd/kernels.hpp"

namespace basrpt::matching {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// (score, payload) order. The payloads come through callables, so
/// they are read only on a score tie.
template <typename PayloadA, typename PayloadB>
bool ahead_of(double ka, const PayloadA& pa, double kb, const PayloadB& pb) {
  if (ka != kb) {
    return ka < kb;
  }
  return pa() < pb();
}

}  // namespace

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

LaneChain::Step LaneChain::step(const LaneChanges& changes,
                                std::uint64_t context) const {
  if (changes.source == 0 || changes.source != source_ ||
      context != context_) {
    return Step::kRebuild;
  }
  if (changes.seq == seq_) {
    return Step::kSame;
  }
  return changes.seq == seq_ + 1 ? Step::kNext : Step::kRebuild;
}

void LaneChain::commit(const LaneChanges& changes, std::uint64_t context) {
  source_ = changes.source;
  seq_ = changes.seq;
  context_ = context;
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

void GreedyMatcher::sort_all(const double* score, const PortId* left,
                             const PortId* right, const std::int64_t* payload,
                             std::size_t n) {
  perf::ScopedPhase phase(obs::Phase::kMatchSort);
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order_[i] = rec_at(score, left, right, static_cast<std::uint32_t>(i));
  }
  std::sort(order_.begin(), order_.end(),
            [payload](const Rec& a, const Rec& b) {
              return before(a, b, payload);
            });
  phase.add_work(n);
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
  // A matching has at most this many entries, so `out` never grows
  // while the candidate count does not.
  const auto min_ports = static_cast<std::size_t>(std::min(n_left, n_right));
  out.reserve(std::min(n, min_ports));
  BASRPT_ASSERT(simd::bounds_ok_i32(left, n, n_left),
                "ingress out of range");
  BASRPT_ASSERT(simd::bounds_ok_i32(right, n, n_right),
                "egress out of range");

  if (changes.source == 0) {
    chain_.reset();
    sort_all(score, left, right, payload, n);
    perf::ScopedPhase scan_phase(obs::Phase::kAcceptScan);
    scan_phase.add_work(accept_scan(payload, n_left, n_right, out));
    return;
  }

  const std::uint64_t ports = (static_cast<std::uint64_t>(n_left) << 32) |
                              static_cast<std::uint64_t>(n_right);
  const LaneChain::Step step = chain_.step(changes, ports);
  chain_.reset();  // until the kept matching matches these lanes again
  if (step == LaneChain::Step::kRebuild) {
    n_left_ = n_left;
    n_right_ = n_right;
    shift_ = 0;
    while ((PortId{1} << shift_) < n_right) {
      ++shift_;
    }
    rebuild(score, left, right, payload, n);
    emit(out);
  } else {
    perf::ScopedPhase phase(obs::Phase::kMatchRepair);
    // The same refresh seen again carries no new changes.
    phase.add_work(repair(score, left, right, payload, n,
                          step == LaneChain::Step::kSame ? LaneChanges{}
                                                         : changes));
    emit(out);
  }
  chain_.commit(changes, ports);
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

// ---- Tracked path -------------------------------------------------------

bool GreedyMatcher::ahead(std::uint32_t a, std::uint32_t b) const {
  return ahead_of(key_[a], [&] { return pay_[a]; }, key_[b],
                  [&] { return pay_[b]; });
}

bool GreedyMatcher::waits_before(const Waiting& a, const Waiting& b) const {
  return ahead_of(a.key, [&] { return pay_[a.voq]; }, b.key,
                  [&] { return pay_[b.voq]; });
}

bool GreedyMatcher::steps_after(const CascadeStep& a,
                                const CascadeStep& b) const {
  return ahead_of(b.key, [&] { return pay_[b.voq]; }, a.key,
                  [&] { return pay_[a.voq]; });
}

void GreedyMatcher::rebuild(const double* score, const PortId* left,
                            const PortId* right, const std::int64_t* payload,
                            std::size_t n) {
  sort_all(score, left, right, payload, n);

  // The greedy pass over the whole order, keeping every entry: the
  // winners in order, the rest in their ports' lists (appended in order,
  // so each list is sorted). A port's list never holds more entries
  // than the other side has ports, so reserving that keeps repairs
  // allocation-free.
  perf::ScopedPhase scan_phase(obs::Phase::kAcceptScan);
  const std::size_t voqs = static_cast<std::size_t>(n_left_) << shift_;
  state_.assign(voqs, kAbsent);
  listed_.assign(voqs, 0);
  if (key_.size() != voqs) {
    key_.resize(voqs);
    pay_.resize(voqs);
    seen_.assign(voqs, 0);
    epoch_ = 0;
  }
  match_left_.assign(static_cast<std::size_t>(n_left_), kNone);
  match_right_.assign(static_cast<std::size_t>(n_right_), kNone);
  wait_left_.resize(static_cast<std::size_t>(n_left_));
  wait_right_.resize(static_cast<std::size_t>(n_right_));
  for (std::vector<Waiting>& w : wait_left_) {
    w.clear();
    w.reserve(static_cast<std::size_t>(n_right_));
  }
  for (std::vector<Waiting>& w : wait_right_) {
    w.clear();
    w.reserve(static_cast<std::size_t>(n_left_));
  }
  voq_at_.resize(n);
  matched_.clear();
  // The matched list also holds, until emit, the entries a cascade
  // displaced; the freed ports are two per matched entry.
  const auto ports = static_cast<std::size_t>(n_left_ + n_right_);
  matched_.reserve(ports);
  departed_.reserve(ports);
  freed_.reserve(ports);
  steps_.reserve(ports);
  for (const Rec& r : order_) {
    const std::uint32_t v = voq_of(r.left, r.right);
    BASRPT_ASSERT(state_[v] == kAbsent,
                  "a tracked view holds two entries for one VOQ");
    key_[v] = r.score;
    pay_[v] = payload[r.idx];
    voq_at_[r.idx] = v;
    if (match_left_[r.left] == kNone && match_right_[r.right] == kNone) {
      state_[v] = kMatched;
      match_left_[r.left] = v;
      match_right_[r.right] = v;
      matched_.push_back(v);
      listed_[v] = 1;
    } else {
      state_[v] = kWaiting;
      wait_left_[r.left].push_back({r.score, v});
      wait_right_[r.right].push_back({r.score, v});
    }
  }
  scan_phase.add_work(n);
}

std::size_t GreedyMatcher::repair(const double* score, const PortId* left,
                                  const PortId* right,
                                  const std::int64_t* payload, std::size_t n,
                                  const LaneChanges& changes) {
  if (++epoch_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  const std::size_t n_old = voq_at_.size();
  const std::uint32_t* changed = changes.changed;
  const std::size_t c = changes.changed_count;
  departed_.clear();
  freed_.clear();
  steps_.clear();

  // The VOQs that held a vanished position, or a rewritten one that now
  // holds another VOQ, either moved to another rewritten position or
  // are gone.
  for (std::size_t pos = n; pos < n_old; ++pos) {
    departed_.push_back(voq_at_[pos]);
  }
  voq_at_.resize(n);
  std::size_t grown = 0;
  for (std::size_t k = 0; k < c; ++k) {
    const std::uint32_t pos = changed[k];
    BASRPT_ASSERT(pos < n, "changed position out of range");
    const std::uint32_t v = voq_of(left[pos], right[pos]);
    if (pos >= n_old) {
      ++grown;
    } else if (voq_at_[pos] != v) {
      departed_.push_back(voq_at_[pos]);
    }
    voq_at_[pos] = v;
    seen_[v] = epoch_;
    if (state_[v] == kAbsent) {
      add(v, score[pos], payload[pos]);
    } else {
      rekey(v, score[pos], payload[pos]);
    }
  }
  BASRPT_ASSERT(n <= n_old || grown == n - n_old,
                "lane changes do not cover the view");
  for (const std::uint32_t v : departed_) {
    if (seen_[v] != epoch_ && state_[v] != kAbsent) {
      vanish(v);
    }
  }
  // Ports freed above scan from their old holder's place, now that
  // every list holds its final keys.
  for (const Freed& f : freed_) {
    scan_after(f.side, f.port, f.key, f.payload);
  }
  return c + (n_old - std::min(n, n_old)) + cascade();
}

void GreedyMatcher::add(std::uint32_t voq, double key, std::int64_t payload) {
  state_[voq] = kWaiting;
  key_[voq] = key;
  pay_[voq] = payload;
  wait_insert(voq);
  push_step(voq, Side::kNone, 0);
}

void GreedyMatcher::rekey(std::uint32_t voq, double key,
                          std::int64_t payload) {
  const double old_key = key_[voq];
  const std::int64_t old_payload = pay_[voq];
  if (key == old_key && payload == old_payload) {
    return;
  }
  const bool rose = ahead_of(old_key, [&] { return old_payload; }, key,
                             [&] { return payload; });
  if (state_[voq] == kMatched) {
    if (rose && (overtaken(Side::kLeft, left_of(voq), old_key, old_payload,
                           key, payload) ||
                 overtaken(Side::kRight, right_of(voq), old_key,
                           old_payload, key, payload))) {
      unmatch(voq);  // frees its ports from the old key
      key_[voq] = key;
      pay_[voq] = payload;
      wait_insert(voq);
    } else {
      // Nothing ahead of it holds its ports, and no entry it blocked is
      // now ahead of it. It stays matched.
      key_[voq] = key;
      pay_[voq] = payload;
    }
    return;
  }
  wait_erase(voq);
  key_[voq] = key;
  pay_[voq] = payload;
  wait_insert(voq);
  if (!rose) {
    push_step(voq, Side::kNone, 0);  // it may now precede its blocker
  }
}

void GreedyMatcher::vanish(std::uint32_t voq) {
  if (state_[voq] == kMatched) {
    unmatch(voq);
  } else {
    wait_erase(voq);
  }
  state_[voq] = kAbsent;
}

void GreedyMatcher::unmatch(std::uint32_t voq) {
  const std::uint16_t l = left_of(voq);
  const std::uint16_t r = right_of(voq);
  state_[voq] = kWaiting;
  match_left_[l] = kNone;
  match_right_[r] = kNone;
  freed_.push_back({key_[voq], pay_[voq], l, Side::kLeft});
  freed_.push_back({key_[voq], pay_[voq], r, Side::kRight});
}

void GreedyMatcher::wait_insert(std::uint32_t voq) {
  const Waiting w{key_[voq], voq};
  const auto before = [this](const Waiting& a, const Waiting& b) {
    return waits_before(a, b);
  };
  for (std::vector<Waiting>* list :
       {&wait_left_[left_of(voq)], &wait_right_[right_of(voq)]}) {
    list->insert(std::upper_bound(list->begin(), list->end(), w, before), w);
  }
}

void GreedyMatcher::wait_erase(std::uint32_t voq) {
  const Waiting w{key_[voq], voq};
  const auto before = [this](const Waiting& a, const Waiting& b) {
    return waits_before(a, b);
  };
  for (std::vector<Waiting>* list :
       {&wait_left_[left_of(voq)], &wait_right_[right_of(voq)]}) {
    const auto it = std::lower_bound(list->begin(), list->end(), w, before);
    BASRPT_ASSERT(it != list->end() && it->voq == voq,
                  "unmatched entry missing from its port list");
    list->erase(it);
  }
}

const GreedyMatcher::Waiting* GreedyMatcher::first_after(
    Side side, std::uint16_t port, double key, std::int64_t payload) const {
  const std::vector<Waiting>& list = waiting(side, port);
  const auto it = std::partition_point(
      list.begin(), list.end(), [&](const Waiting& w) {
        return !ahead_of(key, [&] { return payload; }, w.key,
                         [&] { return pay_[w.voq]; });
      });
  return it == list.end() ? nullptr : &*it;
}

bool GreedyMatcher::overtaken(Side side, std::uint16_t port, double old_key,
                              std::int64_t old_payload, double key,
                              std::int64_t payload) const {
  const Waiting* w = first_after(side, port, old_key, old_payload);
  return w != nullptr && ahead_of(w->key, [&] { return pay_[w->voq]; },
                                  key, [&] { return payload; });
}

void GreedyMatcher::scan_after(Side side, std::uint16_t port, double key,
                               std::int64_t payload) {
  const Waiting* it = first_after(side, port, key, payload);
  if (it == nullptr) {
    return;
  }
  const std::uint32_t h = holder(side, port);
  if (h != kNone && ahead(h, it->voq)) {
    return;  // the port's holder blocks the rest of the list
  }
  push_step(it->voq, side, port);
}

void GreedyMatcher::push_step(std::uint32_t voq, Side side,
                              std::uint16_t port) {
  steps_.push_back({key_[voq], voq, port, side});
  std::push_heap(steps_.begin(), steps_.end(),
                 [this](const CascadeStep& a, const CascadeStep& b) {
                   return steps_after(a, b);
                 });
}

std::size_t GreedyMatcher::cascade() {
  // Every step queues only entries behind its own, so when a step runs
  // every entry ahead of it is final and so is its verdict.
  const auto later = [this](const CascadeStep& a, const CascadeStep& b) {
    return steps_after(a, b);
  };
  std::size_t count = 0;
  while (!steps_.empty()) {
    std::pop_heap(steps_.begin(), steps_.end(), later);
    const CascadeStep s = steps_.back();
    steps_.pop_back();
    ++count;
    const std::uint32_t v = s.voq;
    if (state_[v] == kMatched) {
      continue;  // matched by an earlier step
    }
    const std::uint16_t l = left_of(v);
    const std::uint16_t r = right_of(v);
    const std::uint32_t a = match_left_[l];
    const std::uint32_t b = match_right_[r];
    const bool blocked_left = a != kNone && ahead(a, v);
    const bool blocked_right = b != kNone && ahead(b, v);
    if (!blocked_left && !blocked_right) {
      wait_erase(v);
      state_[v] = kMatched;
      match_left_[l] = v;
      match_right_[r] = v;
      if (listed_[v] == 0) {
        listed_[v] = 1;
        matched_.push_back(v);
      }
      // Each displaced holder keeps waiting behind v at the shared port
      // and frees its other port.
      if (a != kNone) {
        const std::uint16_t ra = right_of(a);
        state_[a] = kWaiting;
        match_right_[ra] = kNone;
        wait_insert(a);
        scan_after(Side::kRight, ra, key_[a], pay_[a]);
      }
      if (b != kNone) {
        const std::uint16_t lb = left_of(b);
        state_[b] = kWaiting;
        match_left_[lb] = kNone;
        wait_insert(b);
        scan_after(Side::kLeft, lb, key_[b], pay_[b]);
      }
      continue;
    }
    // Blocked only at the other port: the scan moves on along its own.
    if ((s.side == Side::kLeft && !blocked_left) ||
        (s.side == Side::kRight && !blocked_right)) {
      scan_after(s.side, s.port, key_[v], pay_[v]);
    }
  }
  return count;
}

void GreedyMatcher::emit(std::vector<std::int64_t>& out) {
  std::size_t m = 0;
  for (const std::uint32_t v : matched_) {
    if (state_[v] == kMatched) {
      matched_[m++] = v;
    } else {
      listed_[v] = 0;
    }
  }
  matched_.resize(m);
  // Served keys move together, so the list is nearly in order already.
  for (std::size_t i = 1; i < m; ++i) {
    const std::uint32_t v = matched_[i];
    std::size_t j = i;
    while (j > 0 && ahead(v, matched_[j - 1])) {
      matched_[j] = matched_[j - 1];
      --j;
    }
    matched_[j] = v;
  }
  for (const std::uint32_t v : matched_) {
    out.push_back(pay_[v]);
  }
}

}  // namespace basrpt::matching
