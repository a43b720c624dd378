// Weighted max-min fair rate allocation (progressive filling).
//
// Given a set of concurrently served flows, each consuming a fraction of
// capacity on the links of its path, compute the max-min fair rate
// vector: grow all unfrozen flows' rates uniformly; when a link
// saturates, freeze its flows at the current rate; repeat. This is the
// fluid model every flow-level datacenter simulator (including the
// paper's) uses between scheduling events.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "topo/topology.hpp"

namespace basrpt::topo {

/// Saturation tolerance of progressive filling, in bits/s (capacities
/// are ~1e8-1e10): a link whose residual is at most this is saturated,
/// and only links carrying more than this much weight bind.
inline constexpr double kFillEps = 1e-6;

/// One flow's demand: its path (fractional link uses) and an optional
/// rate cap (e.g. the sender NIC limit); no cap = uncapped.
struct FlowDemand {
  std::vector<LinkUse> path;
  Rate cap = Rate{0.0};  // 0 means uncapped
};

/// Max-min fair rates for `demands` subject to `capacities`. Result[i]
/// is the rate of demands[i]. Flows with empty paths are invalid.
std::vector<Rate> max_min_rates(const std::vector<FlowDemand>& demands,
                                const std::vector<Rate>& capacities);

/// Progressive filling with persistent scratch for hot loops: the
/// per-link residual/weight and per-flow frozen arrays live in the
/// solver and are reused across calls, so solving allocates nothing
/// once warmed. `n_flows` is the count of valid leading entries in
/// `demands` (callers keep oversized demand buffers to reuse their
/// inner path vectors). Arithmetic, iteration order and tolerances are
/// exactly those of max_min_rates — the two are bit-identical.
class MaxMinSolver {
 public:
  /// Resizes `rates` to `n_flows` and fills it with the max-min rates.
  void solve_into(const FlowDemand* demands, std::size_t n_flows,
                  const std::vector<Rate>& capacities,
                  std::vector<Rate>& rates);

 private:
  std::vector<double> residual_;
  std::vector<double> weight_;
  std::vector<char> frozen_;
};

}  // namespace basrpt::topo
