// Incrementally maintained per-VOQ candidate lanes.
//
// The simulators previously rebuilt the scheduler's candidate list from
// scratch before every decision — O(#non-empty VOQs) ordered-index
// probes and flow-table lookups each time, even though an arrival or a
// drain touches exactly one VOQ. This cache keeps one VoqCandidate per
// VOQ in a persistently allocated dense array, recomputes only the VOQs
// the matrix reports dirty (VoqMatrix::dirty_voqs), then transposes the
// non-empty entries into contiguous SoA lanes (sched::CandidateView) in
// the matrix's non-empty order — the same order build_candidates
// produces, so order-sensitive schedulers (exact BASRPT's enumeration
// ties, BvN's selection order) behave identically. The transpose is one
// plain per-field copy loop over the packed entries.
//
// Steady-state cost per refresh: O(#dirty VOQs) candidate recomputes
// plus O(#non-empty VOQs) lane copies, with zero heap allocation once
// the lanes have warmed to the fabric's footprint.
//
// The cache consumes the matrix's dirty list (clear_dirty), so attach
// at most one cache — or any single dirty-consuming observer — per
// VoqMatrix.
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
  /// matrix order). The view stays valid until the next refresh().
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
  std::vector<std::uint32_t> packed_idx_;     // flat indexes, packed order
  sched::CandidateSoA soa_;                   // packed lanes
  sched::CandidateView view_;
};

}  // namespace basrpt::fabric
