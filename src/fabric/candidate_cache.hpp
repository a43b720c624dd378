// Incrementally maintained per-VOQ candidate lanes.
//
// The simulators previously rebuilt the scheduler's candidate list from
// scratch before every decision — O(#non-empty VOQs) ordered-index
// probes and flow-table lookups each time, even though an arrival or a
// drain touches exactly one VOQ. This cache keeps one VoqCandidate per
// VOQ in a persistently allocated dense array, recomputes only the VOQs
// the matrix reports dirty (VoqMatrix::dirty_voqs), and keeps contiguous
// SoA lanes (sched::CandidateView) in the matrix's non-empty order — the
// same order build_candidates produces, so order-sensitive schedulers
// (exact BASRPT's enumeration ties, BvN's selection order) behave
// identically.
//
// The non-empty order changes only by append and by swap-remove, and
// every VOQ appended or removed is dirty. So a lane position can change
// only if a dirty VOQ occupied it before the refresh or occupies it
// after: the refresh rewrites exactly those positions, and the view
// lists them (matching::LaneChanges) so the greedy matcher can merge
// instead of re-sorting. While any port is masked, or on the first
// refresh, the lanes are repacked in full and the view says the changes
// are unknown.
//
// Steady-state cost per refresh: O(#dirty VOQs) candidate recomputes and
// lane copies, with zero heap allocation once the lanes have warmed to
// the fabric's footprint.
//
// The cache consumes the matrix's dirty list (clear_dirty), so attach
// at most one cache — or any single dirty-consuming observer — per
// VoqMatrix, and attach it while the matrix is empty or every non-empty
// VOQ is still dirty.
#pragma once

#include <cstdint>
#include <vector>

#include "queueing/voq.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::fabric {

class CandidateCache {
 public:
  /// `unit_bytes` converts bytes to packets for the scheduler keys (1.0
  /// when the matrix already stores packets). `with_arrival` is
  /// typically the consuming scheduler's needs_arrival_lane(): it
  /// controls whether the view carries the oldest_flow/oldest_arrival
  /// lanes (asking the view for a lane built without it is a
  /// ConfigError).
  CandidateCache(const queueing::VoqMatrix& voqs, double unit_bytes,
                 bool with_arrival = true);

  /// Brings the cache up to date with the matrix and returns the packed
  /// candidate view (one entry per non-empty VOQ whose ports are usable,
  /// matrix order). The view stays valid until the next refresh(). Its
  /// changes() carry this cache's source id and a sequence that bumps on
  /// every refresh that changed anything; a refresh that changed nothing
  /// returns the same view, stamp included.
  const sched::CandidateView& refresh();

  /// Marks a port usable/unusable (fault blackout): candidates whose
  /// ingress *or* egress is an unusable port are filtered from the
  /// packed view, so decide_into never selects a dead matching edge.
  /// O(1); the next refresh() repacks the view without recomputing any
  /// per-VOQ entry — entries keep tracking matrix mutations while the
  /// port is dark, so recovery costs one repack, not a row+column
  /// recompute. All ports start usable.
  void set_port_usable(queueing::PortId port, bool usable);
  bool port_usable(queueing::PortId port) const;

  double unit_bytes() const { return unit_bytes_; }
  bool with_arrival() const { return with_arrival_; }

  // Work accounting for tests and bench_candidate_cache.
  std::uint64_t refreshes() const { return refreshes_; }
  std::uint64_t voqs_recomputed() const { return voqs_recomputed_; }
  /// Candidates filtered out by the port mask, cumulative over refreshes.
  std::uint64_t candidates_masked() const { return candidates_masked_; }

 private:
  const queueing::VoqMatrix& voqs_;
  double unit_bytes_;
  bool with_arrival_;

  std::uint64_t seen_version_ = 0;
  std::uint64_t refreshes_ = 0;
  std::uint64_t voqs_recomputed_ = 0;
  std::uint64_t candidates_masked_ = 0;

  // Port mask (fault support). mask_epoch_ bumps on every mask change so
  // refresh() repacks even when the matrix itself is unchanged;
  // masked_ports_ lets the common all-usable case skip the filter.
  std::vector<char> port_ok_;
  std::size_t masked_ports_ = 0;
  std::uint64_t mask_epoch_ = 0;
  std::uint64_t seen_mask_epoch_ = 0;

  std::vector<sched::VoqCandidate> entries_;  // dense, by flat VOQ index
  std::vector<std::uint32_t> lane_of_;        // flat index -> lane, or none
  sched::CandidateSoA soa_;                   // packed lanes
  sched::CandidateView view_;

  // Change publication. lanes_mirror_ is true when the lanes hold every
  // non-empty VOQ in matrix order (no port masked at the last repack),
  // the precondition for an incremental refresh.
  std::uint64_t source_;
  std::uint64_t sequence_ = 0;
  bool lanes_mirror_ = false;
  std::vector<std::uint32_t> changed_;  // lane positions rewritten
  std::vector<char> is_changed_;        // by position; all 0 between calls

  void recompute(std::size_t idx);
  void write_lane(std::size_t pos, std::uint32_t idx);
  void refresh_changed();
  void repack_all();
};

}  // namespace basrpt::fabric
