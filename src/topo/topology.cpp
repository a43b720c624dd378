#include "topo/topology.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace basrpt::topo {

FabricConfig paper_fabric() { return FabricConfig{}; }

FabricConfig small_fabric(std::int32_t racks, std::int32_t hosts_per_rack,
                          std::int32_t cores) {
  FabricConfig config;
  config.racks = racks;
  config.hosts_per_rack = hosts_per_rack;
  config.cores = cores;
  // Keep the paper's 1:1 oversubscription: rack uplink capacity equals
  // the rack's aggregate host capacity.
  const double uplink_gbps =
      10.0 * static_cast<double>(hosts_per_rack) / static_cast<double>(cores);
  config.core_link = gbps(uplink_gbps);
  return config;
}

Fabric::Fabric(FabricConfig config) : config_(config) {
  BASRPT_REQUIRE(config_.racks >= 1, "fabric needs at least one rack");
  BASRPT_REQUIRE(config_.hosts_per_rack >= 1,
                 "fabric needs at least one host per rack");
  BASRPT_REQUIRE(config_.cores >= 1, "fabric needs at least one core switch");
  BASRPT_REQUIRE(config_.host_link.bits_per_sec > 0.0,
                 "host link capacity must be positive");
  BASRPT_REQUIRE(config_.core_link.bits_per_sec > 0.0,
                 "core link capacity must be positive");

  // Link layout: [host up | host down | tor up (rack-major) | tor down].
  const std::int32_t hosts = config_.hosts();
  const std::int32_t tor_links = config_.racks * config_.cores;
  capacity_.assign(static_cast<std::size_t>(2 * hosts + 2 * tor_links),
                   Rate{});
  for (HostId h = 0; h < hosts; ++h) {
    capacity_[static_cast<std::size_t>(host_up(h))] = config_.host_link;
    capacity_[static_cast<std::size_t>(host_down(h))] = config_.host_link;
  }
  for (std::int32_t r = 0; r < config_.racks; ++r) {
    for (std::int32_t c = 0; c < config_.cores; ++c) {
      capacity_[static_cast<std::size_t>(tor_up(r, c))] = config_.core_link;
      capacity_[static_cast<std::size_t>(tor_down(r, c))] = config_.core_link;
    }
  }
}

std::int32_t Fabric::rack_of(HostId h) const {
  BASRPT_ASSERT(h >= 0 && h < hosts(), "host id out of range");
  return h / config_.hosts_per_rack;
}

bool Fabric::same_rack(HostId a, HostId b) const {
  return rack_of(a) == rack_of(b);
}

Rate Fabric::link_capacity(LinkId l) const {
  BASRPT_ASSERT(l >= 0 && l < links(), "link id out of range");
  return capacity_[static_cast<std::size_t>(l)];
}

LinkId Fabric::host_up(HostId h) const {
  BASRPT_ASSERT(h >= 0 && h < hosts(), "host id out of range");
  return h;
}

LinkId Fabric::host_down(HostId h) const {
  BASRPT_ASSERT(h >= 0 && h < hosts(), "host id out of range");
  return hosts() + h;
}

LinkId Fabric::tor_up(std::int32_t rack, std::int32_t core) const {
  BASRPT_ASSERT(rack >= 0 && rack < config_.racks, "rack out of range");
  BASRPT_ASSERT(core >= 0 && core < config_.cores, "core out of range");
  return 2 * hosts() + rack * config_.cores + core;
}

LinkId Fabric::tor_down(std::int32_t rack, std::int32_t core) const {
  BASRPT_ASSERT(rack >= 0 && rack < config_.racks, "rack out of range");
  BASRPT_ASSERT(core >= 0 && core < config_.cores, "core out of range");
  return 2 * hosts() + config_.racks * config_.cores +
         rack * config_.cores + core;
}

std::int32_t Fabric::ecmp_core(std::uint64_t flow_key) const {
  std::uint64_t state = flow_key;
  const std::uint64_t h = splitmix64(state);
  return static_cast<std::int32_t>(
      h % static_cast<std::uint64_t>(config_.cores));
}

std::vector<LinkUse> Fabric::route(HostId src, HostId dst,
                                   std::uint64_t flow_key) const {
  std::vector<LinkUse> uses;
  route_into(src, dst, flow_key, uses);
  return uses;
}

void Fabric::route_into(HostId src, HostId dst, std::uint64_t flow_key,
                        std::vector<LinkUse>& uses) const {
  BASRPT_ASSERT(src != dst, "flow source equals destination");
  uses.clear();
  uses.push_back({host_up(src), 1.0});
  if (!same_rack(src, dst)) {
    const std::int32_t src_rack = rack_of(src);
    const std::int32_t dst_rack = rack_of(dst);
    if (config_.routing == RoutingMode::kFluidSpray) {
      const double share = 1.0 / static_cast<double>(config_.cores);
      for (std::int32_t c = 0; c < config_.cores; ++c) {
        uses.push_back({tor_up(src_rack, c), share});
        uses.push_back({tor_down(dst_rack, c), share});
      }
    } else {
      const std::int32_t core = ecmp_core(flow_key);
      uses.push_back({tor_up(src_rack, core), 1.0});
      uses.push_back({tor_down(dst_rack, core), 1.0});
    }
  }
  uses.push_back({host_down(dst), 1.0});
}

}  // namespace basrpt::topo
