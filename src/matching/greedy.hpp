// Greedy maximal matching over scored candidates.
//
// This is the primitive behind SRPT and fast BASRPT (Algorithm 1 of the
// paper): iterate candidates in non-decreasing score order and accept a
// candidate iff its ingress and egress ports are both still free. The
// result is a maximal matching over the candidate support.
#pragma once

#include <cstdint>
#include <vector>

#include "matching/bipartite.hpp"

namespace basrpt::matching {

/// One candidate for selection: typically one active flow.
struct ScoredCandidate {
  PortId left;
  PortId right;
  double score;       // lower is better (e.g. remaining size for SRPT)
  std::int64_t payload = 0;  // caller's identifier (flow id)
};

/// Result of a greedy pass: the matching plus which candidates won.
struct GreedyResult {
  Matching matching;
  std::vector<std::int64_t> selected_payloads;
};

/// Sorts candidates by (score, payload) — the payload tiebreak makes the
/// algorithm deterministic — and greedily accepts. O(K log K) for K
/// candidates. `n_left`/`n_right` are port counts.
GreedyResult greedy_maximal(std::vector<ScoredCandidate> candidates,
                            PortId n_left, PortId n_right);

/// Where a set of candidate lanes came from, so a consumer can keep
/// what it derived from them across calls. `source` names one lane
/// producer and is unique for the life of the process (0 = untracked:
/// consumers start from scratch); `seq` numbers the producer's
/// refreshes; `changed` lists the positions whose lanes the refresh
/// `seq` rewrote. Every other position below the new size holds the
/// lanes it held at refresh `seq - 1`.
struct LaneChanges {
  std::uint64_t source = 0;
  std::uint64_t seq = 0;
  const std::uint32_t* changed = nullptr;
  std::size_t changed_count = 0;
};

/// The one test of whether a call's lanes continue the chain a lane
/// consumer saw last. The matcher, the schedulers' key lanes and the
/// decorators' lane copies each keep one, so all of them agree on when
/// only the changed positions need work.
class LaneChain {
 public:
  enum class Step {
    kRebuild,  // untracked, another producer, a skipped refresh or
               // another context: derive everything again
    kSame,     // the refresh seen last, seen again: nothing changed
    kNext,     // the next refresh: only `changed` and the positions
               // past the new size changed
  };

  /// How `changes` relates to the last committed call. `context` is
  /// whatever else the consumer's derived lanes depend on (a port
  /// count); a different context is a rebuild.
  Step step(const LaneChanges& changes, std::uint64_t context = 0) const;

  /// Records that the consumer's derived state now matches `changes`.
  void commit(const LaneChanges& changes, std::uint64_t context = 0);

  /// Forgets the chain: the next call rebuilds.
  void reset() { source_ = 0; }

 private:
  std::uint64_t source_ = 0;  // 0: no chain
  std::uint64_t seq_ = 0;
  std::uint64_t context_ = 0;
};

/// Allocation-free variant of greedy_maximal for hot decision loops:
/// scratch persists across calls, candidates arrive as SoA lanes (the
/// sched::CandidateView layout — the score lane is often a view lane
/// streamed with zero copies), and winners are appended to `out` in
/// (score, payload) order. The selection is identical to greedy_maximal
/// *provided payloads are distinct* (they are flow ids in the
/// schedulers): the (score, payload) key is then a total order.
///
/// Untracked lanes are sorted whole (one comparison sort of compact
/// 16-byte records) and accept-scanned; the scan stops once
/// min(n_left, n_right) winners are accepted.
///
/// Tracked lanes keep the matching itself across calls and repair it
/// from what changed. The repair rests on one invariant: the greedy
/// matching is the unique matching in which every unmatched candidate
/// shares a port with a matched candidate ahead of it in (score,
/// payload) order. The matcher keeps, per port, its matched entry and
/// its unmatched entries in order. On a call that continues the chain
/// (LaneChain, with the port counts as context) it re-keys each changed
/// position's VOQ:
///  * a matched entry whose key fell stays matched with no further work
///    (nothing ahead of it at its ports was matched, and it only moved
///    further ahead), and so does one whose key rose past no unmatched
///    entry at its ports;
///  * a new entry, an unmatched entry whose key fell, and the ports a
///    matched entry frees when its key rises past an unmatched entry or
///    it vanishes start a cascade, run in (score, payload) order: each
///    entry it reaches is matched iff nothing ahead of it holds either
///    port, displacing what held them, and a displaced entry frees its
///    other port.
/// Entries are keyed by VOQ (ingress, egress) — at most one per pair on
/// a tracked chain — so a VOQ that moves to another position keeps its
/// state; that state is O(n_left · n_right), as the candidate cache's. This requires a score that depends only on the lanes at its
/// own position and on the call's port counts — true of every caller
/// here. Anything else (another source, a skipped seq, other port
/// counts) rebuilds with the sort, then fills the per-port state in one
/// pass over the sorted order.
class GreedyMatcher {
 public:
  /// Clears `out`, then appends the payloads of the accepted candidates
  /// in selection (sorted) order. Lane pointers must each hold `n`
  /// elements; scores must be NaN-free; port counts must be at most
  /// 65535 (the sort records pack ports into 16 bits). No heap
  /// allocation once the scratch has warmed to the fabric size.
  /// Untracked: sorts all `n`.
  void match_lanes_into(const double* score, const PortId* left,
                        const PortId* right, const std::int64_t* payload,
                        std::size_t n, PortId n_left, PortId n_right,
                        std::vector<std::int64_t>& out);

  /// Same selection, repairing the kept matching from what `changes`
  /// says changed when it continues the previous call's chain.
  void match_lanes_into(const double* score, const PortId* left,
                        const PortId* right, const std::int64_t* payload,
                        std::size_t n, PortId n_left, PortId n_right,
                        const LaneChanges& changes,
                        std::vector<std::int64_t>& out);

 private:
  /// Sort record: the exact score for comparisons, the candidate's
  /// position for payload fetch, and its ports for the accept scan. 16
  /// bytes, so the sort moves compact rows.
  struct Rec {
    double score;
    std::uint32_t idx;
    std::uint16_t left;
    std::uint16_t right;
  };

  /// An unmatched entry in a port's list.
  struct Waiting {
    double key;
    std::uint32_t voq;
  };
  enum class Side : std::uint8_t { kNone, kLeft, kRight };
  /// A cascade step: the VOQ to evaluate and, for a scan, the side and
  /// port it walks.
  struct CascadeStep {
    double key;
    std::uint32_t voq;
    std::uint16_t port;
    Side side;
  };
  /// A port freed in the re-key pass; its scan starts after (key, payload).
  struct Freed {
    double key;
    std::int64_t payload;
    std::uint16_t port;
    Side side;
  };

  /// The matcher's order: score, then payload. Payloads are read only
  /// on a score tie.
  static bool before(const Rec& a, const Rec& b, const std::int64_t* payload);

  /// The record of lane position `i`.
  static Rec rec_at(const double* score, const PortId* left,
                    const PortId* right, std::uint32_t i);

  /// The one sort: fills order_ with every position's record, in exact
  /// (score, payload) order.
  void sort_all(const double* score, const PortId* left, const PortId* right,
                const std::int64_t* payload, std::size_t n);

  /// Accepts the ordered entries whose ports are still free into `out`
  /// and returns the number of entries scanned. A member call of its
  /// own, so the scan's cursors get registers of their own.
  std::size_t accept_scan(const std::int64_t* payload, PortId n_left,
                          PortId n_right, std::vector<std::int64_t>& out);

  // ---- Tracked path -----------------------------------------------------

  /// Sorts all `n` entries and fills the repair state from the order.
  void rebuild(const double* score, const PortId* left, const PortId* right,
               const std::int64_t* payload, std::size_t n);

  /// Brings the kept matching up to the lanes; returns the entries
  /// re-keyed plus the cascade steps.
  std::size_t repair(const double* score, const PortId* left,
                     const PortId* right, const std::int64_t* payload,
                     std::size_t n, const LaneChanges& changes);

  /// A VOQ's id packs its ports: (left << shift_) | right.
  std::uint32_t voq_of(PortId left, PortId right) const {
    return (static_cast<std::uint32_t>(left) << shift_) |
           static_cast<std::uint32_t>(right);
  }
  std::uint16_t left_of(std::uint32_t voq) const {
    return static_cast<std::uint16_t>(voq >> shift_);
  }
  std::uint16_t right_of(std::uint32_t voq) const {
    return static_cast<std::uint16_t>(voq & ((1u << shift_) - 1));
  }
  bool ahead(std::uint32_t a, std::uint32_t b) const;
  bool waits_before(const Waiting& a, const Waiting& b) const;
  bool steps_after(const CascadeStep& a, const CascadeStep& b) const;
  const std::vector<Waiting>& waiting(Side side, std::uint16_t port) const {
    return side == Side::kLeft ? wait_left_[port] : wait_right_[port];
  }
  std::uint32_t holder(Side side, std::uint16_t port) const {
    return side == Side::kLeft ? match_left_[port] : match_right_[port];
  }

  void add(std::uint32_t voq, double key, std::int64_t payload);
  void rekey(std::uint32_t voq, double key, std::int64_t payload);
  void vanish(std::uint32_t voq);
  /// Takes a matched entry off its ports; they are freed after its key.
  void unmatch(std::uint32_t voq);
  void wait_insert(std::uint32_t voq);
  void wait_erase(std::uint32_t voq);
  /// The first unmatched entry at `port` after (key, payload), or null.
  const Waiting* first_after(Side side, std::uint16_t port, double key,
                             std::int64_t payload) const;
  /// Whether an unmatched entry at `port` lies between a matched entry's
  /// old and new (key, payload): one it blocked that is now ahead of it.
  bool overtaken(Side side, std::uint16_t port, double old_key,
                 std::int64_t old_payload, double key,
                 std::int64_t payload) const;
  /// Queues the first unmatched entry at `port` after (key, payload),
  /// unless the port's holder is ahead of it.
  void scan_after(Side side, std::uint16_t port, double key,
                  std::int64_t payload);
  void push_step(std::uint32_t voq, Side side, std::uint16_t port);
  /// Runs the queued steps in (key, payload) order; returns their count.
  std::size_t cascade();
  /// Puts the matched list in (key, payload) order and writes `out`.
  void emit(std::vector<std::int64_t>& out);

  std::vector<char> left_used_;
  std::vector<char> right_used_;
  std::vector<Rec> order_;  // sort scratch

  LaneChain chain_;
  PortId n_left_ = 0;
  PortId n_right_ = 0;
  std::uint32_t shift_ = 0;  // bits of a right port in a VOQ id

  // Per VOQ id: its key and payload, whether a position holds it and
  // whether it is matched, whether matched_ lists it, and the repair
  // that last saw it.
  enum State : std::uint8_t { kAbsent, kWaiting, kMatched };
  std::vector<double> key_;
  std::vector<std::int64_t> pay_;
  std::vector<State> state_;
  std::vector<char> listed_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t epoch_ = 0;

  std::vector<std::uint32_t> voq_at_;       // per position
  std::vector<std::uint32_t> match_left_;   // matched VOQ per port, or kNone
  std::vector<std::uint32_t> match_right_;
  std::vector<std::vector<Waiting>> wait_left_;   // unmatched, in order
  std::vector<std::vector<Waiting>> wait_right_;
  std::vector<std::uint32_t> matched_;  // matched VOQs, in order after emit
  std::vector<std::uint32_t> departed_;  // repair scratch
  std::vector<Freed> freed_;
  std::vector<CascadeStep> steps_;  // min-heap by (key, payload)
};

}  // namespace basrpt::matching
