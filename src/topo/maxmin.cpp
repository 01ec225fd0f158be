#include "topo/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace basrpt::topo {

namespace {
constexpr double kEps = 1e-6;  // bits/s; capacities are ~1e9-1e10
}  // namespace

std::vector<Rate> max_min_rates(const std::vector<FlowDemand>& demands,
                                const std::vector<Rate>& capacities) {
  std::vector<Rate> rates;
  MaxMinSolver solver;
  solver.solve_into(demands.data(), demands.size(), capacities, rates);
  return rates;
}

void MaxMinSolver::solve_into(const FlowDemand* demands, std::size_t n_flows,
                              const std::vector<Rate>& capacities,
                              std::vector<Rate>& rates) {
  const std::size_t n_links = capacities.size();
  rates.assign(n_flows, Rate{0.0});
  if (n_flows == 0) {
    return;
  }

  residual_.resize(n_links);
  for (std::size_t l = 0; l < n_links; ++l) {
    BASRPT_ASSERT(capacities[l].bits_per_sec >= 0.0,
                  "negative link capacity");
    residual_[l] = capacities[l].bits_per_sec;
  }

  // Weight of unfrozen traffic per link.
  weight_.assign(n_links, 0.0);
  frozen_.assign(n_flows, 0);
  for (std::size_t f = 0; f < n_flows; ++f) {
    BASRPT_ASSERT(!demands[f].path.empty(), "flow demand with empty path");
    for (const LinkUse& use : demands[f].path) {
      BASRPT_ASSERT(use.link >= 0 &&
                        static_cast<std::size_t>(use.link) < n_links,
                    "link id out of range");
      BASRPT_ASSERT(use.fraction > 0.0 && use.fraction <= 1.0,
                    "link fraction must be in (0, 1]");
      weight_[static_cast<std::size_t>(use.link)] += use.fraction;
    }
  }

  // All unfrozen flows always share one common rate "level"; progressive
  // filling raises it until a link saturates or a flow hits its cap.
  double level = 0.0;
  std::size_t remaining = n_flows;

  while (remaining > 0) {
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < n_links; ++l) {
      if (weight_[l] > kEps) {
        delta = std::min(delta, residual_[l] / weight_[l]);
      }
    }
    for (std::size_t f = 0; f < n_flows; ++f) {
      if (frozen_[f] == 0 && demands[f].cap.bits_per_sec > 0.0) {
        delta = std::min(delta, demands[f].cap.bits_per_sec - level);
      }
    }
    BASRPT_ASSERT(std::isfinite(delta),
                  "progressive filling found no binding constraint");
    const double bound = delta;
    delta = std::max(delta, 0.0);

    level += delta;
    for (std::size_t l = 0; l < n_links; ++l) {
      if (weight_[l] > kEps) {
        // The link or links whose residual / weight set this round's
        // delta are saturated. Subtracting weight * delta can leave them
        // a few ulp of residual, which at 1e10 bit/s is above kEps, so
        // they are zeroed instead of compared.
        if (residual_[l] / weight_[l] == bound) {
          residual_[l] = 0.0;
        } else {
          residual_[l] -= weight_[l] * delta;
        }
      }
    }

    // Freeze flows on saturated links or at their caps.
    std::size_t newly_frozen = 0;
    for (std::size_t f = 0; f < n_flows; ++f) {
      if (frozen_[f] != 0) {
        continue;
      }
      bool freeze = false;
      if (demands[f].cap.bits_per_sec > 0.0 &&
          level >= demands[f].cap.bits_per_sec - kEps) {
        freeze = true;
      }
      if (!freeze) {
        for (const LinkUse& use : demands[f].path) {
          if (residual_[static_cast<std::size_t>(use.link)] <= kEps) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        frozen_[f] = 1;
        rates[f] = Rate{level};
        for (const LinkUse& use : demands[f].path) {
          weight_[static_cast<std::size_t>(use.link)] -= use.fraction;
        }
        ++newly_frozen;
      }
    }
    remaining -= newly_frozen;
    BASRPT_ASSERT(newly_frozen > 0 || remaining == 0,
                  "progressive filling made no progress");
  }
}

EdgeBoundCheck::EdgeBoundCheck(const Fabric& fabric)
    : host_link_(fabric.config().host_link),
      hosts_(fabric.hosts()),
      racks_(fabric.config().racks),
      hosts_per_rack_(fabric.config().hosts_per_rack),
      spray_(fabric.config().routing == RoutingMode::kFluidSpray),
      host_busy_(static_cast<std::size_t>(2 * fabric.hosts())),
      rack_flows_(static_cast<std::size_t>(2 * racks_)) {
  // A ToR link carrying k flows has weight share + ... + share (k terms,
  // in solve_into's order) and bounds the first round at core / weight.
  // The weight grows with k, so the bound holds up to some k and no
  // further.
  const FabricConfig& config = fabric.config();
  const double share = 1.0 / static_cast<double>(config.cores);
  double weight = 0.0;
  for (std::int32_t k = 1; k <= hosts_per_rack_; ++k) {
    weight += share;
    if (weight > kEps && config.core_link.bits_per_sec / weight <
                             host_link_.bits_per_sec) {
      break;
    }
    max_rack_flows_ = k;
  }
}

bool EdgeBoundCheck::rates_into(std::span<const HostPair> pairs,
                                std::vector<Rate>& rates) {
  if (!spray_) {
    return false;
  }
  std::fill(host_busy_.begin(), host_busy_.end(), 0);
  std::fill(rack_flows_.begin(), rack_flows_.end(), 0);
  for (const HostPair& p : pairs) {
    char& up = host_busy_[static_cast<std::size_t>(p.src)];
    char& down = host_busy_[static_cast<std::size_t>(hosts_ + p.dst)];
    if (up != 0 || down != 0) {
      return false;
    }
    up = 1;
    down = 1;
    const std::int32_t src_rack = p.src / hosts_per_rack_;
    const std::int32_t dst_rack = p.dst / hosts_per_rack_;
    if (src_rack != dst_rack &&
        (++rack_flows_[static_cast<std::size_t>(src_rack)] > max_rack_flows_ ||
         ++rack_flows_[static_cast<std::size_t>(racks_ + dst_rack)] >
             max_rack_flows_)) {
      return false;
    }
  }
  rates.assign(pairs.size(), host_link_);
  return true;
}

}  // namespace basrpt::topo
