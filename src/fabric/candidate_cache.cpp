#include "fabric/candidate_cache.hpp"

#include <atomic>
#include <cstdint>

#include "common/assert.hpp"
#include "perf/profiler.hpp"

namespace basrpt::fabric {
namespace {

// Cache identities start at 1: source 0 marks an untracked view.
std::atomic<std::uint64_t> g_next_cache_id{1};

}  // namespace

CandidateCache::CandidateCache(const queueing::VoqMatrix& voqs,
                               double unit_bytes, bool with_arrival)
    : voqs_(voqs),
      unit_bytes_(unit_bytes),
      with_arrival_(with_arrival),
      id_(g_next_cache_id.fetch_add(1, std::memory_order_relaxed)) {
  BASRPT_REQUIRE(unit_bytes > 0.0, "unit must be positive");
  const auto n = static_cast<std::size_t>(voqs.ports());
  entries_.resize(n * n);
  recomputed_at_.assign(n * n, 0);
  packed_idx_.reserve(n);
  soa_.with_arrival = with_arrival;
  port_ok_.assign(n, 1);
}

void CandidateCache::write_lanes(std::size_t k, std::size_t idx) {
  const sched::VoqCandidate& c = entries_[idx];
  soa_.ingress[k] = c.ingress;
  soa_.egress[k] = c.egress;
  soa_.backlog[k] = c.backlog;
  soa_.shortest_flow[k] = c.shortest_flow;
  soa_.shortest_remaining[k] = c.shortest_remaining;
  if (with_arrival_) {
    soa_.oldest_flow[k] = c.oldest_flow;
    soa_.oldest_arrival[k] = c.oldest_arrival;
  }
  changed_.push_back(static_cast<std::uint32_t>(k));
}

const sched::CandidateView& CandidateCache::refresh() {
  perf::ScopedPhase phase(obs::Phase::kCandidateRepack);
  ++refreshes_;
  changed_.clear();
  if (voqs_.version() != seen_version_ || mask_epoch_ != seen_mask_epoch_) {
    const std::vector<std::size_t>& non_empty = voqs_.non_empty_indices();
    // With no port masked, after a refresh that packed every non-empty
    // VOQ, each VOQ's lane position is its matrix position: only the
    // dirty VOQs' positions need writing (a VOQ the matrix moved is
    // dirty too).
    const bool in_place = masked_ports_ == 0 && packed_in_place_;
    if (in_place) {
      packed_idx_.resize(non_empty.size());
      soa_.resize_lanes(non_empty.size());
    }
    for (const std::size_t idx : voqs_.dirty_voqs()) {
      const queueing::PortId i = voqs_.voq_ingress(idx);
      const queueing::PortId j = voqs_.voq_egress(idx);
      if (voqs_.flow_count(i, j) == 0) {
        continue;  // drained empty; its position went to another VOQ
      }
      // Masked VOQs still recompute: entries_ stays warm so recovery is a
      // pure repack.
      sched::fill_candidate(voqs_, i, j, unit_bytes_, with_arrival_,
                            entries_[idx]);
      recomputed_at_[idx] = refreshes_;
      ++voqs_recomputed_;
      if (in_place) {
        const std::size_t k = voqs_.non_empty_position(idx);
        packed_idx_[k] = static_cast<std::uint32_t>(idx);
        write_lanes(k, idx);
      }
    }
    voqs_.clear_dirty();
    seen_version_ = voqs_.version();
    seen_mask_epoch_ = mask_epoch_;
    if (!in_place) {
      repack(non_empty);
    }
    packed_in_place_ = masked_ports_ == 0;
    view_ = soa_.view();
  }
  view_.changes_ = {id_, refreshes_, changed_.data(), changed_.size()};
  phase.add_work(changed_.size());
  return view_;
}

void CandidateCache::repack(const std::vector<std::size_t>& non_empty) {
  // Repack in matrix order, rewriting only the positions whose VOQ
  // moved there or was recomputed; every other position already holds
  // its VOQ's current lanes.
  const std::size_t before = packed_idx_.size();
  packed_idx_.resize(non_empty.size());
  soa_.resize_lanes(non_empty.size());
  std::size_t m = 0;
  for (const std::size_t idx : non_empty) {
    if (masked_ports_ != 0) {
      const auto i = static_cast<std::size_t>(voqs_.voq_ingress(idx));
      const auto j = static_cast<std::size_t>(voqs_.voq_egress(idx));
      if (port_ok_[i] == 0 || port_ok_[j] == 0) {
        ++candidates_masked_;
        continue;
      }
    }
    const std::size_t k = m++;
    if (k >= before || packed_idx_[k] != idx ||
        recomputed_at_[idx] == refreshes_) {
      packed_idx_[k] = static_cast<std::uint32_t>(idx);
      write_lanes(k, idx);
    }
  }
  packed_idx_.resize(m);
  soa_.resize_lanes(m);
}

void CandidateCache::set_port_usable(queueing::PortId port, bool usable) {
  const auto p = static_cast<std::size_t>(port);
  BASRPT_REQUIRE(p < port_ok_.size(), "port out of range");
  const char next = usable ? 1 : 0;
  if (port_ok_[p] == next) {
    return;
  }
  port_ok_[p] = next;
  if (usable) {
    --masked_ports_;
  } else {
    ++masked_ports_;
  }
  ++mask_epoch_;
}

bool CandidateCache::port_usable(queueing::PortId port) const {
  const auto p = static_cast<std::size_t>(port);
  BASRPT_REQUIRE(p < port_ok_.size(), "port out of range");
  return port_ok_[p] != 0;
}

}  // namespace basrpt::fabric
