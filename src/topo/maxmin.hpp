// Weighted max-min fair rate allocation (progressive filling).
//
// Given a set of concurrently served flows, each consuming a fraction of
// capacity on the links of its path, compute the max-min fair rate
// vector: grow all unfrozen flows' rates uniformly; when a link
// saturates, freeze its flows at the current rate; repeat. This is the
// fluid model every flow-level datacenter simulator (including the
// paper's) uses between scheduling events.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "topo/topology.hpp"

namespace basrpt::topo {

/// One flow's demand: its path (fractional link uses) and an optional
/// rate cap (e.g. the sender NIC limit); no cap = uncapped.
struct FlowDemand {
  std::vector<LinkUse> path;
  Rate cap = Rate{0.0};  // 0 means uncapped
};

/// Max-min fair rates for `demands` subject to `capacities`. Result[i]
/// is the rate of demands[i]. Flows with empty paths are invalid.
std::vector<Rate> max_min_rates(const std::vector<FlowDemand>& demands,
                                const std::vector<Rate>& capacities);

/// Progressive filling with persistent scratch for hot loops: the
/// per-link residual/weight and per-flow frozen arrays live in the
/// solver and are reused across calls, so solving allocates nothing
/// once warmed. `n_flows` is the count of valid leading entries in
/// `demands` (callers keep oversized demand buffers to reuse their
/// inner path vectors). Arithmetic, iteration order and tolerances are
/// exactly those of max_min_rates — the two are bit-identical.
class MaxMinSolver {
 public:
  /// Resizes `rates` to `n_flows` and fills it with the max-min rates.
  void solve_into(const FlowDemand* demands, std::size_t n_flows,
                  const std::vector<Rate>& capacities,
                  std::vector<Rate>& rates);

 private:
  std::vector<double> residual_;
  std::vector<double> weight_;
  std::vector<char> frozen_;
};

/// Endpoints of one served flow.
struct HostPair {
  HostId src;
  HostId dst;
};

/// solve_into's answer for the common case, found without routing.
/// On a fluid-spray fabric, progressive filling over a set of flows ends
/// in its first round with every flow frozen at exactly `host_link` when
///   * every host up-link and down-link carries at most one flow, and
///   * no ToR link's weight, its flows' 1/cores shares summed as
///     solve_into sums them, divides that link's capacity below the host
///     rate.
/// The host links then bind first, and each flow crosses one. ECMP
/// fabrics, fair sharing's shared host links and a binding core link
/// fail the check; their rates need route_into and solve_into.
class EdgeBoundCheck {
 public:
  explicit EdgeBoundCheck(const Fabric& fabric);

  /// When the flows `pairs` are edge-bound, sets `rates` to `host_link`
  /// for each (bit-identical to solve_into over their routes) and
  /// returns true. Otherwise returns false and leaves `rates` alone.
  bool rates_into(std::span<const HostPair> pairs, std::vector<Rate>& rates);

 private:
  Rate host_link_;
  std::int32_t hosts_;
  std::int32_t racks_;
  std::int32_t hosts_per_rack_;
  bool spray_;
  /// Most cross-rack flows one ToR link may carry and stay edge-bound.
  std::int32_t max_rack_flows_ = 0;
  std::vector<char> host_busy_;           // [up | down] per host
  std::vector<std::int32_t> rack_flows_;  // [up | down] per rack
};

}  // namespace basrpt::topo
