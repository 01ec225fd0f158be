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

/// Where a set of candidate lanes came from, so GreedyMatcher can keep
/// its order across calls. `source` names one lane producer and is
/// unique for the life of the process (0 = untracked: the matcher
/// rebuilds its order from scratch); `seq` numbers the producer's
/// refreshes; `changed` lists the positions whose lanes the refresh
/// `seq` rewrote. Every other position below the new size holds the
/// lanes it held at refresh `seq - 1`.
struct LaneChanges {
  std::uint64_t source = 0;
  std::uint64_t seq = 0;
  const std::uint32_t* changed = nullptr;
  std::size_t changed_count = 0;
};

/// Allocation-free variant of greedy_maximal for hot decision loops:
/// port-usage and sort scratch persist across calls, candidates arrive
/// as SoA lanes (the sched::CandidateView layout — the score lane is
/// often a view lane streamed with zero copies), and winners are
/// appended to `out`. The selection is identical to greedy_maximal
/// *provided payloads are distinct* (they are flow ids in the
/// schedulers): the (score, payload) key is then a total order, so no
/// two sort algorithms can disagree on the order.
///
/// The matcher keeps the (score, payload) order of its last call. When
/// the lanes continue the chain that call saw (same LaneChanges source,
/// next or same seq, same port counts), it drops the changed and
/// vanished positions from that order, sorts only the changed ones and
/// merges them back: O(changed log changed + n) instead of a full sort.
/// This requires a score that depends only on the lanes at its own
/// position and on the call's port counts — true of every caller here.
/// Anything else (an untracked view, another source, a skipped seq)
/// rebuilds the order from scratch.
///
/// Sorting: rebuilds and changed entries go through one sort, a
/// comparison sort of compact 16-byte (score, position, ports) records
/// by (score, payload). Between events only the served flows' entries
/// change, so the sets it sorts are small; a rebuild sorts all `n`.
/// The accept scan stops once min(n_left, n_right) winners are
/// accepted — every later candidate would be rejected anyway. Input
/// lanes are never reordered.
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

  /// Same selection, re-sorting only what `changes` says changed when
  /// it continues the previous call's chain.
  void match_lanes_into(const double* score, const PortId* left,
                        const PortId* right, const std::int64_t* payload,
                        std::size_t n, PortId n_left, PortId n_right,
                        const LaneChanges& changes,
                        std::vector<std::int64_t>& out);

  /// AoS adapter over match_lanes_into for callers holding
  /// ScoredCandidate buffers (repacks into lane scratch per call; the
  /// buffer is left untouched).
  void match_into(const std::vector<ScoredCandidate>& candidates,
                  PortId n_left, PortId n_right,
                  std::vector<std::int64_t>& out);

 private:
  /// Sort record: the exact score for comparisons, the candidate's
  /// position for payload fetch, and its ports for the accept scan. 16
  /// bytes, so the sort and the merge move compact rows.
  struct Rec {
    double score;
    std::uint32_t idx;
    std::uint16_t left;
    std::uint16_t right;
  };

  /// The matcher's order: score, then payload. Payloads are read only
  /// on a score tie.
  static bool before(const Rec& a, const Rec& b, const std::int64_t* payload);

  /// The record of lane position `i`.
  static Rec rec_at(const double* score, const PortId* left,
                    const PortId* right, std::uint32_t i);

  /// The one sort: puts `recs` in exact (score, payload) order, payloads
  /// read through the records' lane positions.
  static void sort_recs(std::vector<Rec>& recs, const std::int64_t* payload);

  /// Accepts the ordered entries whose ports are still free into `out`
  /// and returns the number of entries scanned. A member call of its
  /// own, so the scan's cursors get registers of their own.
  std::size_t accept_scan(const std::int64_t* payload, PortId n_left,
                          PortId n_right, std::vector<std::int64_t>& out);

  /// Brings order_ up to the lanes: drops the changed and vanished
  /// positions, sorts the changed ones and merges them in. Returns the
  /// number of entries sorted.
  std::size_t update_order(const double* score, const PortId* left,
                           const PortId* right, const std::int64_t* payload,
                           std::size_t n, const LaneChanges& changes);

  std::vector<char> left_used_;
  std::vector<char> right_used_;
  std::vector<Rec> recs_;              // the changed entries, sorted

  // The kept order and the chain it belongs to.
  std::vector<Rec> order_;
  std::uint64_t source_ = 0;           // 0: order_ tracks no chain
  std::uint64_t seq_ = 0;
  PortId n_left_ = 0;
  PortId n_right_ = 0;
  std::vector<char> stale_;            // per position, during update

  // Lane scratch for the AoS adapter.
  std::vector<double> score_s_;
  std::vector<PortId> left_s_;
  std::vector<PortId> right_s_;
  std::vector<std::int64_t> payload_s_;
};

}  // namespace basrpt::matching
