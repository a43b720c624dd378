// Max-min rates of a serving set on one Fabric, certified in one round
// where possible.
//
// flowsim recomputes the rates of its serving set on every arrival and
// completion. With the paper's edge-constrained capacities the usual
// answer is one common level: progressive filling freezes every flow in
// its first round. FabricRates checks that case directly instead of
// routing every flow and filling over every link:
//   * count each link's occupancy straight from the flows' (src, dst,
//     key) — host up, host down and, across racks, one ToR up/down pair
//     (under spray every core carries the same count, so core 0 stands
//     for all of them; under ECMP the hashed core);
//   * take the level as the min over occupied links of cap / w(k), where
//     w(k) is the k-fold left sum of the link's fraction. That is
//     exactly the weight progressive filling accumulates, because every
//     use of one link carries the same fraction (1.0 on host links,
//     1/cores on ToR links under spray, 1.0 under ECMP). Host links
//     share one capacity and ToR links another, and w(k) grows with k,
//     so the min is taken at each class's most-occupied link;
//   * accept only if every flow crosses a link left with
//     cap - w * level <= kFillEps, i.e. filling would freeze every flow
//     in round one at that level. Residuals fall as k grows, so when a
//     once-used host link saturates every flow does (always so for a
//     matching); otherwise each flow's links are checked.
// Accepted rates are bit-identical to route_into + MaxMinSolver; any
// other set (two levels, an ECMP collision, fair sharing) falls back to
// that general solver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "topo/maxmin.hpp"
#include "topo/topology.hpp"

namespace basrpt::topo {

/// A served flow as Fabric::route_into takes it; flows are uncapped.
struct FlowEnds {
  HostId src;
  HostId dst;
  std::uint64_t key;  // ECMP hash seed (route_into's flow_key)
};

class FabricRates {
 public:
  /// `fabric` must outlive this object.
  explicit FabricRates(const Fabric& fabric);

  /// Resizes `rates` to `n` and fills rates[k] with the max-min rate of
  /// flows[k]. Returns true when the single-round certificate held (no
  /// route or solve ran), false when the general solver answered.
  bool solve_into(const FlowEnds* flows, std::size_t n,
                  std::vector<Rate>& rates);

  /// The general path alone: route_into + MaxMinSolver::solve_into over
  /// grow-only demand buffers. The reference the certificate must match.
  void solve_general_into(const FlowEnds* flows, std::size_t n,
                          std::vector<Rate>& rates);

 private:
  /// Sets `level` and returns true iff every flow freezes in the first
  /// filling round. Leaves count_ all-zero on return.
  bool certify(const FlowEnds* flows, std::size_t n, double& level);

  /// The links standing for one flow's path; the ToR pair is kNoLink
  /// for a rack-local flow.
  struct PathLinks {
    LinkId up, down, tor_up, tor_down;
  };
  static constexpr LinkId kNoLink = -1;

  PathLinks path_links(const FlowEnds& f) const;

  /// Progressive filling's weight on a ToR link `k` flows cross.
  double tor_weight(std::int32_t k);

  const Fabric& fabric_;
  bool spray_;
  std::int32_t cores_;
  double host_cap_;  // every host link's capacity (bits/s)
  double tor_cap_;   // every ToR-core link's capacity (bits/s)
  // Link ids precomputed from the Fabric's accessors, so the per-flow
  // walk is table loads rather than range-checked calls and divisions.
  std::vector<std::int32_t> rack_;        // [host]
  std::vector<LinkId> host_up_;           // [host]
  std::vector<LinkId> host_down_;         // [host]
  std::vector<LinkId> tor_up_;            // [rack * cores + core]
  std::vector<LinkId> tor_down_;          // [rack * cores + core]
  std::vector<std::int32_t> count_;  // per link; zero between calls
  std::vector<LinkId> touched_;      // occupied links first; grow-only
  std::vector<double> tor_weight_;   // [k]: k-fold left sum of the ToR
                                     // fraction; grows on demand
  std::vector<FlowDemand> demands_;  // general path; grow-only
  MaxMinSolver solver_;
};

}  // namespace basrpt::topo
