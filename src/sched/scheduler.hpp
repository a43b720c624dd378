// Flow-scheduler interface over the big-switch abstraction.
//
// Both simulators (slotted switch and flow-level fabric) present the
// scheduler with one candidate per non-empty VOQ and receive back a set
// of flows forming a matching (at most one flow per ingress and per
// egress port — the crossbar constraint of Sec. III-B).
//
// One candidate per VOQ is lossless for every scheduler here: a matching
// admits at most one flow per VOQ, and all selection keys in this module
// depend on the flow only through its remaining size or arrival time, so
// the per-VOQ minimizer dominates its queue-mates. This keeps a decision
// O(#non-empty VOQs) instead of O(#active flows) — the difference between
// a tractable and an intractable unstable-SRPT run, where the number of
// parked flows grows without bound.
//
// The decision path is the simulators' hot loop (the paper reschedules
// on *every* arrival and completion), so the interface is built to run
// allocation-free in steady state: candidates arrive as a CandidateView —
// contiguous SoA lanes maintained incrementally by fabric::CandidateCache
// and streamed by each scheduler's key loop — and decide_into() writes
// into a caller-owned Decision whose capacity persists across
// invocations, with implementations keeping sort/matching scratch as
// members.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "queueing/flow.hpp"
#include "queueing/voq.hpp"
#include "sched/candidate_view.hpp"

namespace basrpt::sched {

/// A scheduling decision: flows to serve this slot / until the next
/// arrival-or-completion event. Guaranteed by implementations to respect
/// the crossbar constraint.
struct Decision {
  std::vector<FlowId> selected;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Whether decisions read the view's arrival lanes (oldest_flow /
  /// oldest_arrival). The default is conservative; schedulers that
  /// ignore them override this so candidate builders can skip the lane.
  /// Decorators must forward to the wrapped scheduler. Asking the view
  /// for a lane the builder skipped is a ConfigError.
  virtual bool needs_arrival_lane() const { return true; }

  /// Computes a decision into `out`, clearing `out.selected` first and
  /// reusing its capacity. The view holds at most one entry per (i, j).
  virtual void decide_into(PortId n_ports, const CandidateView& candidates,
                           Decision& out) = 0;

  /// Opaque internal state for checkpoint/resume. Schedulers whose
  /// decisions depend only on the candidates (everything here except the
  /// randomized BvN reference) return empty; stateful ones serialize
  /// whatever restore_checkpoint_state() needs to continue the decision
  /// sequence bit-identically. Decorators forward to the wrapped
  /// scheduler.
  virtual std::vector<std::uint64_t> checkpoint_state() const { return {}; }

  /// Inverse of checkpoint_state(). The default rejects non-empty state
  /// (a stateful checkpoint cannot be restored into a stateless
  /// scheduler — that points at a scheduler-spec mismatch on resume).
  virtual void restore_checkpoint_state(
      const std::vector<std::uint64_t>& state);

  /// Convenience wrapper allocating a fresh Decision (tests, one-off
  /// callers). Hot paths keep a Decision buffer and call decide_into.
  Decision decide(PortId n_ports, const CandidateView& candidates) {
    Decision out;
    decide_into(n_ports, candidates, out);
    return out;
  }
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

/// Builds the per-VOQ candidate list from a VoqMatrix, from scratch, in
/// AoS form. `unit_bytes` converts bytes to packets (use 1.0 when the
/// matrix already stores packets, as in the slotted model);
/// `with_arrival` controls whether the oldest_flow / oldest_arrival
/// fields are filled (skip unless the scheduler needs_arrival_lane()).
/// The simulators use fabric::CandidateCache instead, which maintains
/// the same candidates incrementally as SoA lanes; this remains the
/// reference implementation and the cache's differential-test oracle.
std::vector<VoqCandidate> build_candidates(const queueing::VoqMatrix& voqs,
                                           double unit_bytes,
                                           bool with_arrival = true);

/// Fills one candidate entry for non-empty VOQ (i, j) — the single-VOQ
/// kernel shared by build_candidates and fabric::CandidateCache.
void fill_candidate(const queueing::VoqMatrix& voqs, PortId i, PortId j,
                    double unit_bytes, bool with_arrival, VoqCandidate& out);

/// Checks the crossbar constraint of a decision against the candidate
/// set; used by tests and (cheaply) asserted by the simulators.
bool decision_is_matching(const Decision& decision,
                          const queueing::VoqMatrix& voqs);

}  // namespace basrpt::sched
