// Unit tests for src/topo: fabric layout, routing, max-min allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "topo/fabric_rates.hpp"
#include "topo/maxmin.hpp"
#include "topo/topology.hpp"

namespace basrpt::topo {
namespace {

// ----------------------------------------------------------------- fabric

TEST(Fabric, PaperFabricDimensions) {
  const Fabric fabric(paper_fabric());
  EXPECT_EQ(fabric.hosts(), 144);
  EXPECT_EQ(fabric.config().racks, 12);
  EXPECT_EQ(fabric.config().cores, 3);
  EXPECT_DOUBLE_EQ(fabric.config().host_link.bits_per_sec, 1e10);
  EXPECT_DOUBLE_EQ(fabric.config().core_link.bits_per_sec, 4e10);
  // 2 links per host + 2 per (rack, core) pair.
  EXPECT_EQ(fabric.links(), 2 * 144 + 2 * 12 * 3);
}

TEST(Fabric, SmallFabricKeepsOneToOneOversubscription) {
  const FabricConfig config = small_fabric(4, 6, 3);
  const double rack_capacity =
      config.host_link.bits_per_sec * config.hosts_per_rack;
  const double uplink_capacity = config.core_link.bits_per_sec * config.cores;
  EXPECT_DOUBLE_EQ(rack_capacity, uplink_capacity);
}

TEST(Fabric, RackMembership) {
  const Fabric fabric(small_fabric(3, 4, 2));
  EXPECT_EQ(fabric.rack_of(0), 0);
  EXPECT_EQ(fabric.rack_of(3), 0);
  EXPECT_EQ(fabric.rack_of(4), 1);
  EXPECT_TRUE(fabric.same_rack(0, 3));
  EXPECT_FALSE(fabric.same_rack(3, 4));
}

TEST(Fabric, LinkIdsAreUniqueAndCapacitated) {
  const Fabric fabric(small_fabric(2, 3, 2));
  std::set<LinkId> seen;
  for (HostId h = 0; h < fabric.hosts(); ++h) {
    EXPECT_TRUE(seen.insert(fabric.host_up(h)).second);
    EXPECT_TRUE(seen.insert(fabric.host_down(h)).second);
  }
  for (std::int32_t r = 0; r < 2; ++r) {
    for (std::int32_t c = 0; c < 2; ++c) {
      EXPECT_TRUE(seen.insert(fabric.tor_up(r, c)).second);
      EXPECT_TRUE(seen.insert(fabric.tor_down(r, c)).second);
    }
  }
  EXPECT_EQ(static_cast<std::int32_t>(seen.size()), fabric.links());
  for (LinkId l : seen) {
    EXPECT_GT(fabric.link_capacity(l).bits_per_sec, 0.0);
  }
}

TEST(Fabric, IntraRackRouteUsesTwoEdgeLinks) {
  const Fabric fabric(small_fabric(2, 4, 2));
  const auto uses = fabric.route(0, 1, 7);
  ASSERT_EQ(uses.size(), 2u);
  EXPECT_EQ(uses[0].link, fabric.host_up(0));
  EXPECT_EQ(uses[1].link, fabric.host_down(1));
  EXPECT_DOUBLE_EQ(uses[0].fraction, 1.0);
}

TEST(Fabric, CrossRackSprayTouchesAllCoresFractionally) {
  FabricConfig config = small_fabric(2, 4, 3);
  config.routing = RoutingMode::kFluidSpray;
  const Fabric fabric(config);
  const auto uses = fabric.route(0, 5, 7);
  // host_up + 3x tor_up + 3x tor_down + host_down.
  ASSERT_EQ(uses.size(), 8u);
  double tor_fraction = 0.0;
  for (const auto& u : uses) {
    if (u.link != fabric.host_up(0) && u.link != fabric.host_down(5)) {
      EXPECT_NEAR(u.fraction, 1.0 / 3.0, 1e-12);
      tor_fraction += u.fraction;
    }
  }
  EXPECT_NEAR(tor_fraction, 2.0, 1e-12);  // one full unit up, one down
}

TEST(Fabric, EcmpPicksOneCoreDeterministically) {
  FabricConfig config = small_fabric(2, 4, 3);
  config.routing = RoutingMode::kEcmpHash;
  const Fabric fabric(config);
  const auto uses_a = fabric.route(0, 5, 1234);
  const auto uses_b = fabric.route(0, 5, 1234);
  ASSERT_EQ(uses_a.size(), 4u);  // host_up, tor_up, tor_down, host_down
  for (std::size_t k = 0; k < uses_a.size(); ++k) {
    EXPECT_EQ(uses_a[k].link, uses_b[k].link);
    EXPECT_DOUBLE_EQ(uses_a[k].fraction, 1.0);
  }
}

TEST(Fabric, EcmpSpreadsAcrossCoresOverFlows) {
  FabricConfig config = small_fabric(2, 4, 3);
  config.routing = RoutingMode::kEcmpHash;
  const Fabric fabric(config);
  std::set<LinkId> cores_used;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const auto uses = fabric.route(0, 5, key);
    cores_used.insert(uses[1].link);  // tor_up choice
  }
  EXPECT_EQ(cores_used.size(), 3u);
}

TEST(Fabric, RouteToSelfAsserts) {
  const Fabric fabric(small_fabric(2, 4, 2));
  EXPECT_THROW(fabric.route(3, 3, 0), SimulationError);
}

TEST(Fabric, RejectsDegenerateConfigs) {
  FabricConfig config;
  config.racks = 0;
  EXPECT_THROW(Fabric{config}, ConfigError);
}

// ----------------------------------------------------------------- maxmin

TEST(MaxMin, SingleFlowGetsBottleneckRate) {
  const Fabric fabric(small_fabric(2, 4, 3));
  std::vector<FlowDemand> demands = {{fabric.route(0, 1, 0), Rate{0}}};
  const auto rates = max_min_rates(demands, fabric.capacities());
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0].bits_per_sec, 1e10, 1.0);
}

TEST(MaxMin, TwoFlowsShareACommonLink) {
  const Fabric fabric(small_fabric(2, 4, 3));
  // Both flows leave host 0: the host_up link splits evenly.
  std::vector<FlowDemand> demands = {{fabric.route(0, 1, 0), Rate{0}},
                                     {fabric.route(0, 2, 1), Rate{0}}};
  const auto rates = max_min_rates(demands, fabric.capacities());
  EXPECT_NEAR(rates[0].bits_per_sec, 5e9, 1e3);
  EXPECT_NEAR(rates[1].bits_per_sec, 5e9, 1e3);
}

TEST(MaxMin, CapLimitsAFlow) {
  const Fabric fabric(small_fabric(2, 4, 3));
  std::vector<FlowDemand> demands = {{fabric.route(0, 1, 0), gbps(2.0)},
                                     {fabric.route(0, 2, 1), Rate{0}}};
  const auto rates = max_min_rates(demands, fabric.capacities());
  EXPECT_NEAR(rates[0].bits_per_sec, 2e9, 1e3);
  // The uncapped flow picks up the slack.
  EXPECT_NEAR(rates[1].bits_per_sec, 8e9, 1e3);
}

TEST(MaxMin, MatchingSelectionSaturatesEveryEdgeLink) {
  // A full rack of senders, all cross-rack: with fluid spray the core is
  // exactly at capacity and every flow still gets the full edge rate —
  // the non-blocking property the big-switch abstraction relies on.
  const Fabric fabric(small_fabric(2, 6, 3));
  std::vector<FlowDemand> demands;
  for (HostId h = 0; h < 6; ++h) {
    demands.push_back({fabric.route(h, h + 6, static_cast<std::uint64_t>(h)),
                       Rate{0}});
  }
  const auto rates = max_min_rates(demands, fabric.capacities());
  for (const Rate r : rates) {
    EXPECT_NEAR(r.bits_per_sec, 1e10, 1e4);
  }
}

TEST(MaxMin, EcmpCollisionCongestsACoreLink) {
  // Force all senders onto one core by routing with identical keys via a
  // synthetic single-core fabric: 6 senders share 3 tor uplinks of 20G
  // each... Instead, use a 1-core fabric where all cross-rack traffic
  // shares one 60G uplink: 6 flows → 10G each; with a 30G uplink they
  // halve. This exercises the in-network-bottleneck path of the
  // allocator.
  FabricConfig config = small_fabric(2, 6, 1);
  config.core_link = gbps(30.0);
  config.routing = RoutingMode::kEcmpHash;
  const Fabric fabric(config);
  std::vector<FlowDemand> demands;
  for (HostId h = 0; h < 6; ++h) {
    demands.push_back({fabric.route(h, h + 6, static_cast<std::uint64_t>(h)),
                       Rate{0}});
  }
  const auto rates = max_min_rates(demands, fabric.capacities());
  for (const Rate r : rates) {
    EXPECT_NEAR(r.bits_per_sec, 5e9, 1e4);
  }
}

TEST(MaxMin, NoLinkOversubscribed) {
  const Fabric fabric(small_fabric(3, 4, 2));
  std::vector<FlowDemand> demands;
  std::uint64_t key = 0;
  for (HostId src = 0; src < fabric.hosts(); ++src) {
    for (HostId dst = 0; dst < fabric.hosts(); dst += 3) {
      if (src != dst) {
        demands.push_back({fabric.route(src, dst, key++), Rate{0}});
      }
    }
  }
  const auto rates = max_min_rates(demands, fabric.capacities());
  std::vector<double> load(static_cast<std::size_t>(fabric.links()), 0.0);
  for (std::size_t f = 0; f < demands.size(); ++f) {
    for (const LinkUse& use : demands[f].path) {
      load[static_cast<std::size_t>(use.link)] +=
          use.fraction * rates[f].bits_per_sec;
    }
  }
  for (LinkId l = 0; l < fabric.links(); ++l) {
    EXPECT_LE(load[static_cast<std::size_t>(l)],
              fabric.link_capacity(l).bits_per_sec * (1.0 + 1e-9));
  }
}

TEST(MaxMin, ParetoOptimalityEveryFlowHitsABottleneck) {
  const Fabric fabric(small_fabric(2, 4, 2));
  std::vector<FlowDemand> demands = {{fabric.route(0, 1, 0), Rate{0}},
                                     {fabric.route(0, 5, 1), Rate{0}},
                                     {fabric.route(2, 1, 2), Rate{0}}};
  const auto rates = max_min_rates(demands, fabric.capacities());
  std::vector<double> load(static_cast<std::size_t>(fabric.links()), 0.0);
  for (std::size_t f = 0; f < demands.size(); ++f) {
    for (const LinkUse& use : demands[f].path) {
      load[static_cast<std::size_t>(use.link)] +=
          use.fraction * rates[f].bits_per_sec;
    }
  }
  // Max-min: every flow must traverse at least one saturated link.
  for (std::size_t f = 0; f < demands.size(); ++f) {
    bool bottlenecked = false;
    for (const LinkUse& use : demands[f].path) {
      const double cap =
          fabric.link_capacity(use.link).bits_per_sec;
      if (load[static_cast<std::size_t>(use.link)] >= cap * (1.0 - 1e-6)) {
        bottlenecked = true;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " could be raised";
  }
}

TEST(MaxMin, EmptyDemandsYieldEmptyRates) {
  const Fabric fabric(small_fabric(2, 4, 2));
  EXPECT_TRUE(max_min_rates({}, fabric.capacities()).empty());
}

// ----------------------------------------------------------- FabricRates

// Independent reference: route() + max_min_rates over fresh vectors.
std::vector<Rate> filled_rates(const Fabric& fabric,
                               const std::vector<FlowEnds>& flows) {
  std::vector<FlowDemand> demands;
  for (const FlowEnds& f : flows) {
    demands.push_back({fabric.route(f.src, f.dst, f.key), Rate{0.0}});
  }
  return max_min_rates(demands, fabric.capacities());
}

// Index of the first bitwise difference, or -1 when a and b are equal.
long first_difference(const std::vector<Rate>& a,
                      const std::vector<Rate>& b) {
  if (a.size() != b.size()) {
    return 0;
  }
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(a[k].bits_per_sec) !=
        std::bit_cast<std::uint64_t>(b[k].bits_per_sec)) {
      return static_cast<long>(k);
    }
  }
  return -1;
}

// A random partial matching: every host sends and receives at most once.
std::vector<FlowEnds> random_matching(const Fabric& fabric, Rng& rng) {
  std::vector<HostId> dst(static_cast<std::size_t>(fabric.hosts()));
  for (HostId h = 0; h < fabric.hosts(); ++h) {
    dst[static_cast<std::size_t>(h)] = h;
  }
  std::shuffle(dst.begin(), dst.end(), rng);
  std::vector<FlowEnds> flows;
  const double keep = rng.uniform(0.1, 1.0);
  for (HostId src = 0; src < fabric.hosts(); ++src) {
    const HostId d = dst[static_cast<std::size_t>(src)];
    if (d != src && rng.bernoulli(keep)) {
      flows.push_back({src, d, rng()});
    }
  }
  return flows;
}

// Fair-sharing-style sets: many flows per port, pairs may repeat.
std::vector<FlowEnds> random_shared(const Fabric& fabric, Rng& rng) {
  std::vector<FlowEnds> flows;
  const std::int64_t n = rng.uniform_int(1, 3 * fabric.hosts());
  while (static_cast<std::int64_t>(flows.size()) < n) {
    const auto src =
        static_cast<HostId>(rng.uniform_int(0, fabric.hosts() - 1));
    const auto dst =
        static_cast<HostId>(rng.uniform_int(0, fabric.hosts() - 1));
    if (src != dst) {
      flows.push_back({src, dst, rng()});
    }
  }
  return flows;
}

TEST(FabricRates, CertificateIsBitIdenticalToProgressiveFilling) {
  struct Case {
    std::string name;
    FabricConfig config;
  };
  std::vector<Case> cases;
  for (const bool paper : {true, false}) {
    for (const bool slow_hosts : {false, true}) {
      for (const RoutingMode mode :
           {RoutingMode::kFluidSpray, RoutingMode::kEcmpHash}) {
        FabricConfig config = paper ? paper_fabric() : small_fabric(4, 6);
        if (slow_hosts) {
          config.host_link = mbps(100.0);  // basrptd's default edge
        }
        config.routing = mode;
        cases.push_back(
            {std::string(paper ? "paper" : "small") +
                 (slow_hosts ? "/100Mb" : "/10Gb") +
                 (mode == RoutingMode::kFluidSpray ? "/spray" : "/ecmp"),
             config});
      }
    }
  }
  Rng rng(15);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Fabric fabric(c.config);
    FabricRates solver(fabric);
    std::vector<Rate> rates;
    std::vector<Rate> general;
    int certified_matchings = 0;
    for (int trial = 0; trial < 400; ++trial) {
      const bool matching = trial % 2 == 0;
      const std::vector<FlowEnds> flows = matching
                                              ? random_matching(fabric, rng)
                                              : random_shared(fabric, rng);
      const bool certified = solver.solve_into(flows.data(), flows.size(),
                                               rates);
      const std::vector<Rate> want = filled_rates(fabric, flows);
      ASSERT_EQ(first_difference(rates, want), -1)
          << "trial " << trial << ", " << flows.size() << " flows";
      solver.solve_general_into(flows.data(), flows.size(), general);
      ASSERT_EQ(first_difference(general, want), -1) << "trial " << trial;
      if (matching && certified) {
        ++certified_matchings;
      }
    }
    if (c.config.routing == RoutingMode::kFluidSpray) {
      // Matchings on a spray fabric are the certificate's home ground.
      EXPECT_GT(certified_matchings, 150);
    }
    // The empty set is certified trivially.
    EXPECT_TRUE(solver.solve_into(nullptr, 0, rates));
    EXPECT_TRUE(rates.empty());
  }
}

TEST(FabricRates, CertifiesAFanOutThroughItsSharedUplink) {
  // One host sends to three others: its up link carries all three at
  // 10/3 G while each receiving link keeps spare capacity, so the
  // certificate must find every flow's saturated link flow by flow.
  const Fabric fabric(small_fabric(4, 6, 3));
  const std::vector<FlowEnds> flows = {{0, 1, 1}, {0, 7, 2}, {0, 13, 3}};
  FabricRates solver(fabric);
  std::vector<Rate> rates;
  EXPECT_TRUE(solver.solve_into(flows.data(), flows.size(), rates));
  EXPECT_EQ(first_difference(rates, filled_rates(fabric, flows)), -1);
  EXPECT_EQ(rates[0].bits_per_sec, 1e10 / 3.0);
}

TEST(FabricRates, RefusesEcmpCollisionWithTwoRateLevels) {
  // Three rack-0 -> rack-1 flows hashed onto one 20G core link share it
  // at 20/3 G, while a rack-local flow runs at the full 10G edge rate.
  // One filling round cannot freeze the rack-local flow, so the
  // certificate must refuse and hand back the solver's two levels.
  FabricConfig config = small_fabric(4, 6, 3);
  config.routing = RoutingMode::kEcmpHash;
  const Fabric fabric(config);
  std::vector<FlowEnds> flows;
  std::uint64_t key = 0;
  for (HostId h = 0; h < 3; ++h) {
    while (fabric.ecmp_core(key) != 0) {
      ++key;
    }
    flows.push_back({h, static_cast<HostId>(6 + h), key++});
  }
  flows.push_back({3, 4, key});

  FabricRates solver(fabric);
  std::vector<Rate> rates;
  EXPECT_FALSE(solver.solve_into(flows.data(), flows.size(), rates));
  EXPECT_EQ(first_difference(rates, filled_rates(fabric, flows)), -1);
  EXPECT_NEAR(rates[0].bits_per_sec, 20e9 / 3.0, 1e3);
  EXPECT_NEAR(rates[3].bits_per_sec, 1e10, 1e3);
}

}  // namespace
}  // namespace basrpt::topo
