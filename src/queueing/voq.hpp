// Virtual-output-queue bookkeeping for the big-switch abstraction.
//
// The fabric is modeled as one N-port input-queued switch with N^2 VOQs
// (Sec. III-A): VOQ (i, j) holds the flows arriving at ingress i and
// destined for egress j. VoqMatrix owns the flow records and maintains:
//   * per-VOQ backlogs (X_ij) incrementally, read in O(1);
//   * per-VOQ orderings by remaining size and by arrival time, so
//     schedulers get the SRPT / FIFO representative of a VOQ in O(1);
//   * the set of non-empty VOQs, so building a scheduling decision costs
//     O(#non-empty VOQs), not O(N^2) or O(#flows).
// The last two matter because the whole point of the paper is a regime
// where SRPT parks an unbounded number of flows: the simulator must not
// slow down quadratically as the backlog it is demonstrating grows.
//
// Storage layout (the hot-path contract): flow records live in a slab
// FlowStore — a chunked arena addressed by stable FlowSlot indices with
// an open-addressing id map and SoA mirrors of the scoring fields — and
// the per-VOQ orderings are sorted-chunk indexes over (key, id, slot)
// entries rather than node-based std::sets. Every ordered walk and
// representative probe resolves flows by direct slot indexing; the only
// hashed lookup left is the public by-id entry points. Iteration order,
// tie-breaks and the public API are bit-identical to the original
// map+set layout; checkpoints serialize by FlowId only, so slots are
// free to differ across a resume (docs/CHECKPOINT.md).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "queueing/chunked_index.hpp"
#include "queueing/flow.hpp"
#include "queueing/flow_store.hpp"

namespace basrpt::queueing {

class VoqMatrix {
 public:
  using RemainingIndex = ChunkedIndex<std::int64_t>;
  using ArrivalIndex = ChunkedIndex<double>;

  explicit VoqMatrix(PortId n_ports);

  PortId ports() const { return n_ports_; }

  /// Admits a new flow; its id must be unique and ports in range.
  void add_flow(const Flow& flow);

  /// Drains `amount` from the flow's remaining size (never below zero).
  /// Returns true if the flow completed; completed flows are removed.
  bool drain(FlowId id, Bytes amount);

  /// drain() addressed by slot — for hot loops that already resolved
  /// the flow (e.g. flowsim's advance) and must not pay a second map
  /// probe. `slot` must be live.
  bool drain_at(FlowSlot slot, Bytes amount);

  /// Removes a flow regardless of remaining size; no-op if absent.
  void remove(FlowId id);

  bool contains(FlowId id) const { return store_.find(id) != kNoSlot; }
  const Flow& flow(FlowId id) const;

  /// Slot of `id` in the backing store, or kNoSlot if absent. Slots are
  /// stable for the flow's lifetime and recycled afterwards; never
  /// persist them across mutations without revalidating.
  FlowSlot slot_of(FlowId id) const { return store_.find(id); }

  /// Direct arena access for a live slot (no hashing).
  const Flow& flow_at(FlowSlot slot) const { return store_.at(slot); }

  /// The backing slab store (SoA lanes, FlowRef validation).
  const FlowStore& store() const { return store_; }

  /// Backlog of VOQ (i, j): total remaining bytes of its flows.
  Bytes backlog(PortId i, PortId j) const;

  /// Number of flows queued in VOQ (i, j).
  std::size_t flow_count(PortId i, PortId j) const;

  /// Total remaining bytes over all VOQs.
  Bytes total_backlog() const { return total_backlog_; }

  /// Total backlog of all VOQs at ingress port i / egress port j.
  Bytes ingress_backlog(PortId i) const;
  Bytes egress_backlog(PortId j) const;

  std::size_t active_flows() const { return store_.size(); }
  std::size_t non_empty_voqs() const { return non_empty_.size(); }

  /// Iterates over every active flow in deterministic order: non-empty
  /// VOQs in their maintenance order, flows within a VOQ by remaining
  /// size (ties by id). Reproducible across platforms and libstdc++
  /// versions — fair-sharing serving sets and max-min tie-breaks
  /// depend on it.
  void for_each_flow(const std::function<void(const Flow&)>& fn) const;

  /// Iterates over non-empty VOQs (unspecified order).
  void for_each_non_empty_voq(
      const std::function<void(PortId i, PortId j)>& fn) const;

  // ---- Flat VOQ indexing and mutation tracking --------------------------
  //
  // Incremental consumers (fabric::CandidateCache) mirror per-VOQ derived
  // state and only want to recompute what changed. The matrix stamps every
  // VOQ whose contents a mutation touched into a deduplicated dirty list
  // and bumps a version counter; a consumer compares versions, recomputes
  // the dirty VOQs, and calls clear_dirty(). The bookkeeping is O(1) per
  // mutation and bounded by one entry per VOQ, so an unconsumed list never
  // grows past N^2.

  /// Flat index of VOQ (i, j); the inverse of voq_ingress/voq_egress.
  std::size_t voq_index(PortId i, PortId j) const { return index(i, j); }
  PortId voq_ingress(std::size_t idx) const {
    return static_cast<PortId>(idx / static_cast<std::size_t>(n_ports_));
  }
  PortId voq_egress(std::size_t idx) const {
    return static_cast<PortId>(idx % static_cast<std::size_t>(n_ports_));
  }

  /// Flat indices of the non-empty VOQs, in the order
  /// for_each_non_empty_voq visits them.
  const std::vector<std::size_t>& non_empty_indices() const {
    return non_empty_;
  }

  /// Position of non-empty VOQ `idx` within non_empty_indices(). The
  /// list changes only by appending a VOQ that became non-empty and by
  /// swap-remove: an emptied VOQ's place goes to the last entry.
  std::size_t non_empty_position(std::size_t idx) const {
    BASRPT_ASSERT(position_[idx] < non_empty_.size(), "VOQ is empty");
    return position_[idx];
  }

  /// Bumped on every content mutation (add_flow / drain / remove).
  std::uint64_t version() const { return version_; }

  /// Flat indices of VOQs mutated since the last clear_dirty(), deduped.
  const std::vector<std::size_t>& dirty_voqs() const { return dirty_; }

  /// Resets the dirty list. Const because it only touches observer-side
  /// bookkeeping, never queue state; a single consumer owns the list.
  void clear_dirty() const;

  /// Flow in VOQ (i, j) with the smallest remaining size (ties by id),
  /// or kInvalidFlow if empty. O(1).
  FlowId shortest_in_voq(PortId i, PortId j) const;

  /// Earliest-arrived flow in VOQ (i, j) (ties by id), or kInvalidFlow.
  FlowId oldest_in_voq(PortId i, PortId j) const;

  /// SRPT head of non-empty VOQ (i, j) as an index entry — key
  /// (remaining bytes), id, and slot in one probe, no flow lookup.
  const RemainingIndex::Entry& shortest_entry(PortId i, PortId j) const;

  /// FIFO head of non-empty VOQ (i, j); the key is the arrival time in
  /// seconds, so candidate builders need no flow lookup at all.
  const ArrivalIndex::Entry& oldest_entry(PortId i, PortId j) const;

  /// Flow ids currently queued in VOQ (i, j), in remaining-size order
  /// (test/diagnostic helper; allocates).
  std::vector<FlowId> voq_flow_ids(PortId i, PortId j) const;

 private:
  struct VoqBucket {
    // (remaining bytes, id): front() is the SRPT representative.
    RemainingIndex by_remaining;
    // (arrival seconds, id): front() is the FIFO representative.
    ArrivalIndex by_arrival;
    Bytes backlog{};
  };

  std::size_t index(PortId i, PortId j) const;
  void mark_non_empty(std::size_t idx);
  void mark_empty(std::size_t idx);
  void mark_dirty(std::size_t idx);
  bool drain_slot(FlowSlot slot, Bytes amount);

  PortId n_ports_;
  FlowStore store_;
  std::vector<VoqBucket> voqs_;         // N^2 buckets
  std::vector<Bytes> ingress_backlog_;  // per ingress port
  std::vector<Bytes> egress_backlog_;   // per egress port
  Bytes total_backlog_{};

  // Sparse set of non-empty VOQ indices: non_empty_ holds the indices,
  // position_[idx] locates idx inside non_empty_ for O(1) removal.
  std::vector<std::size_t> non_empty_;
  std::vector<std::size_t> position_;

  // Mutation tracking (see above). dirty_stamp_[idx] == dirty_epoch_
  // means idx is already in dirty_; clear_dirty() bumps the epoch so the
  // reset is O(1). Mutable: observer-side only.
  std::uint64_t version_ = 0;
  mutable std::vector<std::size_t> dirty_;
  mutable std::vector<std::uint64_t> dirty_stamp_;
  mutable std::uint64_t dirty_epoch_ = 1;
};

}  // namespace basrpt::queueing
