#include "fabric/candidate_cache.hpp"

#include <atomic>
#include <cstdint>

#include "common/assert.hpp"
#include "perf/profiler.hpp"

namespace basrpt::fabric {

namespace {

constexpr std::uint32_t kNoLane = static_cast<std::uint32_t>(-1);

/// Source ids for LaneChanges stamps: unique per cache for the process,
/// so a scheduler that outlives one cache never mistakes the next one's
/// views for successors of its last.
std::uint64_t next_source_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

CandidateCache::CandidateCache(const queueing::VoqMatrix& voqs,
                               double unit_bytes, bool with_arrival)
    : voqs_(voqs),
      unit_bytes_(unit_bytes),
      with_arrival_(with_arrival),
      source_(next_source_id()) {
  BASRPT_REQUIRE(unit_bytes > 0.0, "unit must be positive");
  const auto n = static_cast<std::size_t>(voqs.ports());
  entries_.resize(n * n);
  lane_of_.assign(n * n, kNoLane);
  soa_.with_arrival = with_arrival;
  port_ok_.assign(n, 1);
}

void CandidateCache::recompute(std::size_t idx) {
  sched::fill_candidate(voqs_, voqs_.voq_ingress(idx), voqs_.voq_egress(idx),
                        unit_bytes_, with_arrival_, entries_[idx]);
  ++voqs_recomputed_;
}

void CandidateCache::write_lane(std::size_t pos, std::uint32_t idx) {
  const sched::VoqCandidate& c = entries_[idx];
  lane_of_[idx] = static_cast<std::uint32_t>(pos);
  soa_.ingress[pos] = c.ingress;
  soa_.egress[pos] = c.egress;
  soa_.backlog[pos] = c.backlog;
  soa_.flow_count[pos] = static_cast<std::uint32_t>(c.flow_count);
  soa_.shortest_flow[pos] = c.shortest_flow;
  soa_.shortest_remaining[pos] = c.shortest_remaining;
  soa_.shortest_arrival[pos] = c.shortest_arrival;
  if (with_arrival_) {
    soa_.oldest_flow[pos] = c.oldest_flow;
    soa_.oldest_arrival[pos] = c.oldest_arrival;
  }
}

void CandidateCache::refresh_changed() {
  // A position's occupant can change only through the swap-remove of a
  // dirty VOQ that sat there, or by a dirty VOQ moving or being appended
  // into it; so the positions dirty VOQs held and hold are all that moved.
  const std::vector<std::size_t>& order = voqs_.non_empty_indices();
  const std::size_t m = order.size();
  if (is_changed_.size() < m) {
    is_changed_.resize(m, 0);
  }
  changed_.clear();
  const auto mark = [&](std::size_t pos) {
    if (is_changed_[pos] == 0) {
      is_changed_[pos] = 1;
      changed_.push_back(static_cast<std::uint32_t>(pos));
    }
  };
  for (const std::size_t idx : voqs_.dirty_voqs()) {
    const std::uint32_t was = lane_of_[idx];
    if (was != kNoLane) {
      lane_of_[idx] = kNoLane;
      if (was < m) {
        mark(was);
      }
    }
    if (voqs_.flow_count(voqs_.voq_ingress(idx), voqs_.voq_egress(idx)) ==
        0) {
      continue;  // drained empty; its old lane is marked above
    }
    recompute(idx);
    mark(voqs_.non_empty_position(idx));
  }
  soa_.resize_lanes(m);
  for (const std::uint32_t pos : changed_) {
    is_changed_[pos] = 0;
    write_lane(pos, static_cast<std::uint32_t>(order[pos]));
  }
}

void CandidateCache::repack_all() {
  for (const std::size_t idx : voqs_.dirty_voqs()) {
    // Masked VOQs still recompute: entries_ stays warm so recovery is a
    // pure repack.
    if (voqs_.flow_count(voqs_.voq_ingress(idx), voqs_.voq_egress(idx)) >
        0) {
      recompute(idx);
    }
  }
  for (std::size_t pos = 0; pos < soa_.ingress.size(); ++pos) {
    lane_of_[voqs_.voq_index(soa_.ingress[pos], soa_.egress[pos])] = kNoLane;
  }
  const std::vector<std::size_t>& order = voqs_.non_empty_indices();
  std::size_t m = order.size();
  if (masked_ports_ != 0) {
    m = 0;
    for (const std::size_t idx : order) {
      const auto i = static_cast<std::size_t>(voqs_.voq_ingress(idx));
      const auto j = static_cast<std::size_t>(voqs_.voq_egress(idx));
      m += port_ok_[i] != 0 && port_ok_[j] != 0 ? 1 : 0;
    }
    candidates_masked_ += order.size() - m;
  }
  soa_.resize_lanes(m);
  std::size_t pos = 0;
  for (const std::size_t idx : order) {
    const auto i = static_cast<std::size_t>(voqs_.voq_ingress(idx));
    const auto j = static_cast<std::size_t>(voqs_.voq_egress(idx));
    if (port_ok_[i] != 0 && port_ok_[j] != 0) {
      write_lane(pos++, static_cast<std::uint32_t>(idx));
    }
  }
  lanes_mirror_ = masked_ports_ == 0;
  changed_.clear();
}

const sched::CandidateView& CandidateCache::refresh() {
  const perf::ScopedPhase phase(perf::Phase::kCandidateRepack);
  ++refreshes_;
  if (voqs_.version() == seen_version_ && mask_epoch_ == seen_mask_epoch_) {
    return view_;  // nothing changed since the last decision
  }
  const bool incremental = lanes_mirror_ && masked_ports_ == 0;
  if (incremental) {
    refresh_changed();
  } else {
    repack_all();
  }
  voqs_.clear_dirty();
  seen_version_ = voqs_.version();
  seen_mask_epoch_ = mask_epoch_;

  ++sequence_;
  view_ = soa_.view();
  view_.set_changes({source_, sequence_, incremental, changed_.data(),
                     changed_.size()});
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
