#include "fabric/candidate_cache.hpp"

#include <cstdint>

#include "common/assert.hpp"
#include "perf/profiler.hpp"

namespace basrpt::fabric {

CandidateCache::CandidateCache(const queueing::VoqMatrix& voqs,
                               double unit_bytes, bool with_arrival)
    : voqs_(voqs), unit_bytes_(unit_bytes), with_arrival_(with_arrival) {
  BASRPT_REQUIRE(unit_bytes > 0.0, "unit must be positive");
  const auto n = static_cast<std::size_t>(voqs.ports());
  entries_.resize(n * n);
  packed_idx_.reserve(n);
  soa_.with_arrival = with_arrival;
  port_ok_.assign(n, 1);
}

const sched::CandidateView& CandidateCache::refresh() {
  const perf::ScopedPhase phase(perf::Phase::kCandidateRepack);
  ++refreshes_;
  if (voqs_.version() == seen_version_ && mask_epoch_ == seen_mask_epoch_) {
    return view_;  // nothing changed since the last decision
  }
  for (const std::size_t idx : voqs_.dirty_voqs()) {
    const queueing::PortId i = voqs_.voq_ingress(idx);
    const queueing::PortId j = voqs_.voq_egress(idx);
    if (voqs_.flow_count(i, j) == 0) {
      continue;  // drained empty; the repack below skips it
    }
    // Masked VOQs still recompute: entries_ stays warm so recovery is a
    // pure repack.
    sched::fill_candidate(voqs_, i, j, unit_bytes_, with_arrival_,
                          entries_[idx]);
    ++voqs_recomputed_;
  }
  voqs_.clear_dirty();
  seen_version_ = voqs_.version();
  seen_mask_epoch_ = mask_epoch_;

  packed_idx_.clear();
  if (masked_ports_ == 0) {
    for (const std::size_t idx : voqs_.non_empty_indices()) {
      packed_idx_.push_back(static_cast<std::uint32_t>(idx));
    }
  } else {
    for (const std::size_t idx : voqs_.non_empty_indices()) {
      const auto i = static_cast<std::size_t>(voqs_.voq_ingress(idx));
      const auto j = static_cast<std::size_t>(voqs_.voq_egress(idx));
      if (port_ok_[i] == 0 || port_ok_[j] == 0) {
        ++candidates_masked_;
        continue;
      }
      packed_idx_.push_back(static_cast<std::uint32_t>(idx));
    }
  }

  // Transpose the packed entries into lanes.
  const std::size_t m = packed_idx_.size();
  soa_.resize_lanes(m);
  for (std::size_t k = 0; k < m; ++k) {
    const sched::VoqCandidate& c = entries_[packed_idx_[k]];
    soa_.ingress[k] = c.ingress;
    soa_.egress[k] = c.egress;
    soa_.backlog[k] = c.backlog;
    soa_.flow_count[k] = static_cast<std::uint32_t>(c.flow_count);
    soa_.shortest_flow[k] = c.shortest_flow;
    soa_.shortest_remaining[k] = c.shortest_remaining;
    soa_.shortest_arrival[k] = c.shortest_arrival;
    if (with_arrival_) {
      soa_.oldest_flow[k] = c.oldest_flow;
      soa_.oldest_arrival[k] = c.oldest_arrival;
    }
  }
  view_ = soa_.view();
  return view_;
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
