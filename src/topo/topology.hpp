// Multi-rooted hierarchical tree topology (the paper's Fig. 4).
//
// The evaluation fabric interconnects `racks * hosts_per_rack` hosts via
// one ToR switch per rack and `cores` core switches in full mesh with the
// ToRs: 144 hosts = 12 racks x 12 hosts, 3 cores, 10 Gbps host links and
// 40 Gbps ToR-core links in the paper. The bandwidth configuration keeps
// the bottleneck at the edge ("guarantees the bottleneck not to be in
// network"), which is what justifies the big-switch abstraction — and the
// topology model lets us check rather than assume that.
//
// Two routing modes:
//  * kFluidSpray — a flow's traffic is split evenly over all cores
//    (packet-spraying fluid limit). With the paper's capacities the core
//    is then provably non-interfering and the fabric behaves as the big
//    switch.
//  * kEcmpHash — classic per-flow ECMP by flow-id hash; hash collisions
//    can congest a core link. Used as an ablation of the abstraction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace basrpt::topo {

using HostId = std::int32_t;
using LinkId = std::int32_t;

enum class RoutingMode { kFluidSpray, kEcmpHash };

struct FabricConfig {
  std::int32_t racks = 12;
  std::int32_t hosts_per_rack = 12;
  std::int32_t cores = 3;
  Rate host_link = gbps(10.0);
  Rate core_link = gbps(40.0);
  RoutingMode routing = RoutingMode::kFluidSpray;

  std::int32_t hosts() const { return racks * hosts_per_rack; }
};

/// Paper-scale fabric (144 hosts) per Fig. 4.
FabricConfig paper_fabric();

/// Scaled-down fabric with the same oversubscription ratio (1:1), for
/// laptop-scale benches.
FabricConfig small_fabric(std::int32_t racks = 4,
                          std::int32_t hosts_per_rack = 6,
                          std::int32_t cores = 3);

/// Fractional use of one link by a flow: the flow's rate times `fraction`
/// is carried on `link`.
struct LinkUse {
  LinkId link;
  double fraction;
};

class Fabric {
 public:
  explicit Fabric(FabricConfig config);

  const FabricConfig& config() const { return config_; }
  std::int32_t hosts() const { return config_.hosts(); }
  std::int32_t links() const { return static_cast<std::int32_t>(capacity_.size()); }

  std::int32_t rack_of(HostId h) const;
  bool same_rack(HostId a, HostId b) const;

  Rate link_capacity(LinkId l) const;

  /// Link ids (see layout below).
  LinkId host_up(HostId h) const;
  LinkId host_down(HostId h) const;
  LinkId tor_up(std::int32_t rack, std::int32_t core) const;
  LinkId tor_down(std::int32_t rack, std::int32_t core) const;

  /// The links used by a src→dst flow with their capacity fractions.
  /// `flow_key` seeds the ECMP hash (ignored for kFluidSpray).
  std::vector<LinkUse> route(HostId src, HostId dst,
                             std::uint64_t flow_key) const;

  /// route() into a caller-owned buffer: `out` is cleared and refilled,
  /// so hot loops that reuse their path vectors allocate nothing once
  /// the buffers have warmed to the path length.
  void route_into(HostId src, HostId dst, std::uint64_t flow_key,
                  std::vector<LinkUse>& out) const;

  /// Core switch a cross-rack flow takes under kEcmpHash: a
  /// SplitMix64-style hash of `flow_key`, so placement is deterministic
  /// per flow.
  std::int32_t ecmp_core(std::uint64_t flow_key) const;

  /// All link capacities indexed by LinkId, for the max-min allocator.
  const std::vector<Rate>& capacities() const { return capacity_; }

 private:
  FabricConfig config_;
  std::vector<Rate> capacity_;
};

}  // namespace basrpt::topo
