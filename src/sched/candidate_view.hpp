// SoA candidate lanes — the decision-path data layout.
//
// fabric::CandidateCache maintains candidates as contiguous per-field
// lanes and hands schedulers a CandidateView: a non-owning set of lane
// pointers. The schedulers' key loops stream the lanes directly —
// no per-decision AoS repack, and the SRPT key lane IS the
// shortest_remaining lane, copied nowhere.
//
// The arrival lanes (oldest_flow / oldest_arrival — the per-VOQ FIFO
// representative) are optional: maintaining them costs an ordered-index
// probe plus a flow-table lookup per VOQ and only FIFO reads them.
// Presence is a property of the view, not a side-channel flag: a
// scheduler that asks for an absent lane gets a ConfigError, never
// silent zeros.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "queueing/flow.hpp"

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
  std::size_t flow_count = 0;       // flows queued in this VOQ
  FlowId shortest_flow = queueing::kInvalidFlow;
  double shortest_remaining = 0.0;  // packets
  double shortest_arrival = 0.0;    // arrival time of that flow, seconds
  FlowId oldest_flow = queueing::kInvalidFlow;
  double oldest_arrival = 0.0;      // seconds
};

class CandidateSoA;

/// Non-owning lane pointers over `size()` candidates, one per non-empty
/// VOQ. Obtained from CandidateSoA::view() (or CandidateCache::refresh(),
/// which wraps one). Valid until the backing storage is mutated.
class CandidateView {
 public:
  CandidateView() = default;

  /// Adapts an AoS candidate list by repacking it into `storage` (the
  /// test and one-off-caller path; hot paths get a view straight from
  /// the cache). The returned view borrows `storage`.
  static CandidateView from_aos(const std::vector<VoqCandidate>& aos,
                                CandidateSoA& storage,
                                bool with_arrival = true);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const PortId* ingress() const { return ingress_; }
  const PortId* egress() const { return egress_; }
  const double* backlog() const { return backlog_; }
  const std::uint32_t* flow_count() const { return flow_count_; }
  const FlowId* shortest_flow() const { return shortest_flow_; }
  const double* shortest_remaining() const { return shortest_remaining_; }
  const double* shortest_arrival() const { return shortest_arrival_; }

  bool has_arrival_lane() const { return oldest_flow_ != nullptr; }
  /// Throw ConfigError when the arrival lanes were not built — the
  /// builder was configured for a scheduler that does not need them.
  const FlowId* oldest_flow() const;
  const double* oldest_arrival() const;

 private:
  friend class CandidateSoA;

  std::size_t size_ = 0;
  const PortId* ingress_ = nullptr;
  const PortId* egress_ = nullptr;
  const double* backlog_ = nullptr;
  const std::uint32_t* flow_count_ = nullptr;
  const FlowId* shortest_flow_ = nullptr;
  const double* shortest_remaining_ = nullptr;
  const double* shortest_arrival_ = nullptr;
  const FlowId* oldest_flow_ = nullptr;      // null when lane absent
  const double* oldest_arrival_ = nullptr;   // null when lane absent
};

/// Owning lane storage. Lanes are public so builders (the cache's
/// lane repack, tests) write them in place; view() validates that
/// every present lane has the same length before handing out pointers.
class CandidateSoA {
 public:
  std::vector<PortId> ingress;
  std::vector<PortId> egress;
  std::vector<double> backlog;
  std::vector<std::uint32_t> flow_count;
  std::vector<FlowId> shortest_flow;
  std::vector<double> shortest_remaining;
  std::vector<double> shortest_arrival;
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

  /// Copies another view's lanes (including arrival-lane presence).
  /// Decorators use this to mutate a lane before forwarding.
  void assign_from_view(const CandidateView& v);

  /// Validating accessor: throws ConfigError if any present lane's
  /// length disagrees (a builder bug or a fuzzer-mutated view).
  CandidateView view() const;
};

}  // namespace basrpt::sched
