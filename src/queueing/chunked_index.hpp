// Sorted-chunk ordered index over flow slots.
//
// Drop-in replacement for the per-VOQ `std::set<std::pair<Key, FlowId>>`
// orderings: entries are kept ascending by (key, id) — the exact
// tie-break order the sets used — but stored as an unrolled sorted list
// (a vector of bounded sorted chunks) instead of one red-black node per
// flow. The win on the decision hot path is locality and allocation
// behavior:
//   * front() (the SRPT / FIFO representative) is a direct load, and a
//     full in-order walk is a linear scan of contiguous memory;
//   * insert/erase binary-search the chunk bounds, then memmove within
//     one small chunk — no node allocation, no rebalancing;
//   * emptied chunk storage parks in a one-deep spare pool, so
//     steady-state churn (the admit/drain/complete cycle both
//     simulators run per event) allocates nothing once a bucket has
//     warmed to its high-water size.
//
// Entries carry the flow's slot in the backing FlowStore alongside the
// (key, id) ordering pair, so consumers that walk an index (candidate
// building, for_each_flow) reach the flow record by direct arena
// indexing instead of a hash lookup per flow.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "queueing/flow_store.hpp"

namespace basrpt::queueing {

template <typename Key>
class ChunkedIndex {
 public:
  struct Entry {
    Key key;
    FlowId id;
    FlowSlot slot;
  };

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Smallest (key, id) entry. Requires non-empty.
  const Entry& front() const {
    BASRPT_ASSERT(size_ > 0, "front() on empty index");
    return chunks_.front().front();
  }

  void insert(Key key, FlowId id, FlowSlot slot) {
    const std::size_t c = chunk_for(key, id);
    std::vector<Entry>& chunk = chunks_[c];
    const auto it = lower_bound(chunk, key, id);
    BASRPT_ASSERT(it == chunk.end() || !equivalent(*it, key, id),
                  "duplicate (key, id) in ordered index");
    chunk.insert(it, Entry{key, id, slot});
    ++size_;
    if (chunk.size() >= kSplitSize) {
      split(c);
    }
  }

  /// Lowers the front entry's key in place. A smaller key keeps the
  /// front the smallest (key, id), so the order needs no erase/insert.
  void lower_front_key(Key key) {
    BASRPT_ASSERT(size_ > 0, "lower_front_key() on empty index");
    Entry& head = chunks_.front().front();
    BASRPT_ASSERT(!(head.key < key), "front key may only be lowered");
    head.key = key;
  }

  /// Removes the entry with exactly this (key, id); asserts presence.
  void erase(Key key, FlowId id) {
    BASRPT_ASSERT(size_ > 0, "erase from empty index");
    const std::size_t c = chunk_for(key, id);
    std::vector<Entry>& chunk = chunks_[c];
    const auto it = lower_bound(chunk, key, id);
    BASRPT_ASSERT(it != chunk.end() && equivalent(*it, key, id),
                  "flow missing from ordered index");
    chunk.erase(it);
    --size_;
    if (chunk.empty()) {
      retire_chunk(c);
    }
  }

  /// In-order traversal (ascending (key, id)).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::vector<Entry>& chunk : chunks_) {
      for (const Entry& e : chunk) {
        fn(e);
      }
    }
  }

 private:
  // Split threshold: chunks hold at most kSplitSize-1 entries, so every
  // insert/erase memmove is bounded; small enough to stay within a few
  // cache lines, large enough that chunk-bound searches stay shallow.
  static constexpr std::size_t kSplitSize = 48;

  static bool less(const Entry& e, Key key, FlowId id) {
    // Mirrors std::pair<Key, FlowId>::operator< so the order (including
    // -0.0 == +0.0 for double keys) matches the std::set it replaced.
    if (e.key < key) {
      return true;
    }
    if (key < e.key) {
      return false;
    }
    return e.id < id;
  }

  static bool equivalent(const Entry& e, Key key, FlowId id) {
    return !(e.key < key) && !(key < e.key) && e.id == id;
  }

  static typename std::vector<Entry>::iterator lower_bound(
      std::vector<Entry>& chunk, Key key, FlowId id) {
    std::size_t lo = 0;
    std::size_t hi = chunk.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (less(chunk[mid], key, id)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return chunk.begin() +
           static_cast<typename std::vector<Entry>::difference_type>(lo);
  }

  /// Index of the chunk that should contain (key, id): the first chunk
  /// whose last entry is >= (key, id), else the last chunk.
  std::size_t chunk_for(Key key, FlowId id) {
    if (chunks_.empty()) {
      chunks_.push_back(take_spare());
      return 0;
    }
    std::size_t lo = 0;
    std::size_t hi = chunks_.size() - 1;  // fall back to the last chunk
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (less(chunks_[mid].back(), key, id)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void split(std::size_t c) {
    std::vector<Entry> upper = take_spare();
    std::vector<Entry>& chunk = chunks_[c];
    const std::size_t half = chunk.size() / 2;
    upper.assign(chunk.begin() + static_cast<std::ptrdiff_t>(half),
                 chunk.end());
    chunk.resize(half);
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c) + 1,
                   std::move(upper));
  }

  void retire_chunk(std::size_t c) {
    std::vector<Entry> freed = std::move(chunks_[c]);
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(c));
    if (spare_.capacity() < freed.capacity()) {
      spare_ = std::move(freed);  // keep the larger allocation warm
    }
  }

  std::vector<Entry> take_spare() {
    std::vector<Entry> chunk = std::move(spare_);
    spare_ = std::vector<Entry>();
    chunk.clear();
    return chunk;
  }

  std::vector<std::vector<Entry>> chunks_;  // each sorted; globally sorted
  std::vector<Entry> spare_;                // recycled chunk storage
  std::size_t size_ = 0;
};

}  // namespace basrpt::queueing
