// SoA candidate lanes — the decision-path data layout.
//
// fabric::CandidateCache maintains candidates as contiguous per-field
// lanes and hands schedulers a CandidateView: a non-owning set of lane
// pointers. The scoring kernels (src/simd) stream the lanes directly —
// no per-decision AoS repack, and the SRPT key lane IS the
// shortest_remaining lane, copied nowhere.
//
// The arrival lanes (oldest_flow / oldest_arrival — the per-VOQ FIFO
// representative) are optional: maintaining them costs an ordered-index
// probe per VOQ and only FIFO reads them. Presence is a property of the
// view, not a side-channel flag: a scheduler that asks for an absent
// lane gets a ConfigError, never silent zeros.
//
// A view from the cache also says which positions its refresh rewrote
// (changes()), so greedy schedulers repair their matching from those
// alone, and key lanes (KeyLane) and decorators' lane copies rewrite
// only those. Views built here are untracked unless CandidateSoA::view
// is handed the change list to carry: a decorator that copies the
// cache's lanes and rewrites each position from that position's own
// lanes passes the cache's list on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "matching/greedy.hpp"
#include "queueing/flow.hpp"
#include "simd/kernels.hpp"

namespace basrpt::fabric {
class CandidateCache;
}  // namespace basrpt::fabric

namespace basrpt::sched {

using queueing::FlowId;
using queueing::PortId;

/// Per-VOQ summary in AoS form. build_candidates() still produces this —
/// it is the reference implementation and the differential-test oracle
/// for the SoA cache. Sizes and backlogs are in *packets* (the model's
/// unit; the flow-level simulator divides bytes by its packet size) so
/// the paper's V values carry over unchanged.
struct VoqCandidate {
  PortId ingress = 0;
  PortId egress = 0;
  double backlog = 0.0;             // total VOQ backlog X_ij, packets
  FlowId shortest_flow = queueing::kInvalidFlow;
  double shortest_remaining = 0.0;  // packets
  FlowId oldest_flow = queueing::kInvalidFlow;
  double oldest_arrival = 0.0;      // seconds
};

class CandidateSoA;

/// Non-owning lane pointers over `size()` candidates, one per non-empty
/// VOQ. Obtained from CandidateSoA::view() (or CandidateCache::refresh(),
/// which wraps one and adds its change list). Valid until the backing
/// storage is mutated; a carried change list, until its producer's next
/// refresh.
class CandidateView {
 public:
  CandidateView() = default;

  /// Adapts an AoS candidate list by repacking it into `storage` (the
  /// path of tests and microbenchmarks over build_candidates; hot paths
  /// get a view straight from the cache). The returned view borrows
  /// `storage`.
  static CandidateView from_aos(const std::vector<VoqCandidate>& aos,
                                CandidateSoA& storage,
                                bool with_arrival = true);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const PortId* ingress() const { return ingress_; }
  const PortId* egress() const { return egress_; }
  const double* backlog() const { return backlog_; }
  const FlowId* shortest_flow() const { return shortest_flow_; }
  const double* shortest_remaining() const { return shortest_remaining_; }

  bool has_arrival_lane() const { return oldest_flow_ != nullptr; }
  /// Throw ConfigError when the arrival lanes were not built — the
  /// builder was configured for a scheduler that does not need them.
  const FlowId* oldest_flow() const;
  const double* oldest_arrival() const;

  /// Which positions changed since the producer's previous refresh
  /// (untracked — source 0 — unless the view came from the cache).
  const matching::LaneChanges& changes() const { return changes_; }

 private:
  friend class CandidateSoA;
  friend class fabric::CandidateCache;

  std::size_t size_ = 0;
  const PortId* ingress_ = nullptr;
  const PortId* egress_ = nullptr;
  const double* backlog_ = nullptr;
  const FlowId* shortest_flow_ = nullptr;
  const double* shortest_remaining_ = nullptr;
  const FlowId* oldest_flow_ = nullptr;      // null when lane absent
  const double* oldest_arrival_ = nullptr;   // null when lane absent
  matching::LaneChanges changes_;
};

/// Owning lane storage. Lanes are public so builders (the cache's
/// vectorized repack, tests) write them in place; view() validates that
/// every present lane has the same length before handing out pointers.
class CandidateSoA {
 public:
  std::vector<PortId> ingress;
  std::vector<PortId> egress;
  std::vector<double> backlog;
  std::vector<FlowId> shortest_flow;
  std::vector<double> shortest_remaining;
  std::vector<FlowId> oldest_flow;     // empty when with_arrival is false
  std::vector<double> oldest_arrival;  // empty when with_arrival is false

  /// Whether the arrival lanes are part of this storage's lane set.
  bool with_arrival = true;

  void clear();

  /// Resizes every present lane to `n` (contents unspecified — builders
  /// overwrite them).
  void resize_lanes(std::size_t n);

  /// Transposes an AoS candidate list into the lanes.
  void assign_from_aos(const std::vector<VoqCandidate>& aos,
                       bool arrival = true);

  /// Copies another view's lanes, including arrival-lane presence but
  /// not its change list. Decorators use this to mutate a lane before
  /// forwarding, and hand the source's changes() to view().
  void assign_from_view(const CandidateView& v);

  /// Copies position `k` of `v`'s lanes into position `k`, which every
  /// lane must already hold; arrival lanes are copied when present here.
  void assign_at(const CandidateView& v, std::size_t k);

  /// Validating accessor: throws ConfigError if any present lane's
  /// length disagrees (a builder bug or a fuzzer-mutated view). The view
  /// carries `changes` (default: untracked). A caller that passes a
  /// producer's list vouches that every position it does not name holds
  /// the lanes it held at the producer's previous refresh.
  CandidateView view(const matching::LaneChanges& changes = {}) const;
};

/// A scheduler's key lane: one simd::compute_keys op over a view's
/// shortest_remaining and backlog lanes. On a view that continues the
/// chain the lane last saw (matching::LaneChain, with `p0` as context)
/// only the changed positions are recomputed; the keys are the same
/// bits either way.
class KeyLane {
 public:
  /// `op` and `p1` are fixed for the lane's life.
  KeyLane(simd::KeyOp op, double p1) : op_(op), p1_(p1) {}

  /// Brings the keys up to `view` and returns them (`view.size()` keys,
  /// valid until the next update).
  const double* update(double p0, const CandidateView& view);

 private:
  simd::KeyOp op_;
  double p1_;
  std::vector<double> keys_;
  matching::LaneChain chain_;
};

}  // namespace basrpt::sched
