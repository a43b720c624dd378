#include "topo/fabric_rates.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace basrpt::topo {

FabricRates::FabricRates(const Fabric& fabric)
    : fabric_(fabric),
      spray_(fabric.config().routing == RoutingMode::kFluidSpray),
      cores_(fabric.config().cores),
      host_cap_(fabric.link_capacity(fabric.host_up(0)).bits_per_sec),
      tor_cap_(fabric.link_capacity(fabric.tor_up(0, 0)).bits_per_sec),
      count_(static_cast<std::size_t>(fabric.links()), 0) {
  for (HostId h = 0; h < fabric.hosts(); ++h) {
    rack_.push_back(fabric.rack_of(h));
    host_up_.push_back(fabric.host_up(h));
    host_down_.push_back(fabric.host_down(h));
    BASRPT_ASSERT(
        fabric.link_capacity(host_up_.back()).bits_per_sec == host_cap_ &&
            fabric.link_capacity(host_down_.back()).bits_per_sec ==
                host_cap_,
        "host links must share one capacity");
  }
  for (std::int32_t r = 0; r < fabric.config().racks; ++r) {
    for (std::int32_t c = 0; c < cores_; ++c) {
      tor_up_.push_back(fabric.tor_up(r, c));
      tor_down_.push_back(fabric.tor_down(r, c));
      BASRPT_ASSERT(
          fabric.link_capacity(tor_up_.back()).bits_per_sec == tor_cap_ &&
              fabric.link_capacity(tor_down_.back()).bits_per_sec ==
                  tor_cap_,
          "ToR-core links must share one capacity");
    }
  }
  // The same fraction route_into puts on every ToR link it uses.
  const double tor_fraction = spray_ ? 1.0 / static_cast<double>(cores_) : 1.0;
  tor_weight_ = {0.0, tor_fraction};
}

FabricRates::PathLinks FabricRates::path_links(const FlowEnds& f) const {
  BASRPT_ASSERT(f.src >= 0 && f.src < fabric_.hosts() && f.dst >= 0 &&
                    f.dst < fabric_.hosts() && f.src != f.dst,
                "served flow endpoints out of range or equal");
  const auto src = static_cast<std::size_t>(f.src);
  const auto dst = static_cast<std::size_t>(f.dst);
  PathLinks p{host_up_[src], host_down_[dst], kNoLink, kNoLink};
  if (rack_[src] != rack_[dst]) {
    // Under spray every core carries the same share of every cross-rack
    // flow, so core 0's links stand for all of them.
    const std::int32_t core = spray_ ? 0 : fabric_.ecmp_core(f.key);
    p.tor_up = tor_up_[static_cast<std::size_t>(rack_[src] * cores_ + core)];
    p.tor_down =
        tor_down_[static_cast<std::size_t>(rack_[dst] * cores_ + core)];
  }
  return p;
}

double FabricRates::tor_weight(std::int32_t k) {
  while (tor_weight_.size() <= static_cast<std::size_t>(k)) {
    tor_weight_.push_back(tor_weight_.back() + tor_weight_[1]);
  }
  return tor_weight_[static_cast<std::size_t>(k)];
}

bool FabricRates::certify(const FlowEnds* flows, std::size_t n,
                          double& level) {
  if (tor_weight_[1] <= kFillEps) {
    return false;  // filling would skip ToR links; leave it to the solver
  }
  // Count occupancy; touched_ collects each occupied link once.
  if (touched_.size() < 4 * n) {
    touched_.resize(4 * n);
  }
  std::size_t n_touched = 0;
  std::int32_t max_host = 0;
  std::int32_t max_tor = 0;
  const auto occupy = [&](LinkId l, std::int32_t& class_max) {
    std::int32_t& c = count_[static_cast<std::size_t>(l)];
    touched_[n_touched] = l;
    n_touched += c == 0 ? 1 : 0;
    class_max = std::max(class_max, ++c);
  };
  for (std::size_t k = 0; k < n; ++k) {
    const PathLinks p = path_links(flows[k]);
    occupy(p.up, max_host);
    occupy(p.down, max_host);
    if (p.tor_up != kNoLink) {
      occupy(p.tor_up, max_tor);
      occupy(p.tor_down, max_tor);
    }
  }

  // Round one of progressive filling, with MaxMinSolver's operations:
  // the level is the tightest capacity-to-weight ratio, and a link
  // saturates when its residual falls within kFillEps.
  level = host_cap_ / static_cast<double>(max_host);
  if (max_tor > 0) {
    level = std::min(level, tor_cap_ / tor_weight(max_tor));
  }
  bool every_flow_frozen = host_cap_ - 1.0 * level <= kFillEps;
  if (!every_flow_frozen) {
    const auto host_saturated = [&](LinkId l) {
      return host_cap_ - static_cast<double>(
                             count_[static_cast<std::size_t>(l)]) *
                             level <=
             kFillEps;
    };
    const auto tor_saturated = [&](LinkId l) {
      return l != kNoLink &&
             tor_cap_ - tor_weight(count_[static_cast<std::size_t>(l)]) *
                            level <=
                 kFillEps;
    };
    every_flow_frozen = true;
    for (std::size_t k = 0; k < n && every_flow_frozen; ++k) {
      const PathLinks p = path_links(flows[k]);
      every_flow_frozen = host_saturated(p.up) || host_saturated(p.down) ||
                          tor_saturated(p.tor_up) ||
                          tor_saturated(p.tor_down);
    }
  }
  for (std::size_t i = 0; i < n_touched; ++i) {
    count_[static_cast<std::size_t>(touched_[i])] = 0;
  }
  return every_flow_frozen;
}

bool FabricRates::solve_into(const FlowEnds* flows, std::size_t n,
                             std::vector<Rate>& rates) {
  double level = 0.0;
  if (n == 0 || certify(flows, n, level)) {
    rates.assign(n, Rate{level});
    return true;
  }
  solve_general_into(flows, n, rates);
  return false;
}

void FabricRates::solve_general_into(const FlowEnds* flows, std::size_t n,
                                     std::vector<Rate>& rates) {
  // Entries past n are stale but unread; keeping them reuses their path
  // vectors, so the general path allocates nothing once warmed.
  if (demands_.size() < n) {
    demands_.resize(n);
  }
  for (std::size_t k = 0; k < n; ++k) {
    fabric_.route_into(flows[k].src, flows[k].dst, flows[k].key,
                       demands_[k].path);
    demands_[k].cap = Rate{0.0};
  }
  solver_.solve_into(demands_.data(), n, fabric_.capacities(), rates);
}

}  // namespace basrpt::topo
