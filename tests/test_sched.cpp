// Unit tests for src/sched: candidate building and every scheduler,
// including fast-vs-exact BASRPT agreement and limiting behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "matching/greedy.hpp"
#include "matching/hungarian.hpp"
#include "queueing/voq.hpp"
#include "sched/bvn_scheduler.hpp"
#include "sched/exact_basrpt.hpp"
#include "sched/factory.hpp"
#include "sched/fast_basrpt.hpp"
#include "sched/fifo.hpp"
#include "sched/maxweight.hpp"
#include "sched/srpt.hpp"
#include "sched/threshold.hpp"
#include "switchsim/arrivals.hpp"

namespace basrpt::sched {
namespace {

using queueing::Flow;
using queueing::FlowId;
using queueing::VoqMatrix;

Flow make_flow(FlowId id, PortId src, PortId dst, std::int64_t packets,
               double arrival = 0.0) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = Bytes{packets};
  f.remaining = f.size;
  f.arrival = SimTime{arrival};
  return f;
}

/// Random VOQ state for property-style checks (sizes in packets).
VoqMatrix random_state(PortId n_ports, int n_flows, Rng& rng) {
  VoqMatrix voqs(n_ports);
  for (FlowId id = 0; id < n_flows; ++id) {
    const auto src = static_cast<PortId>(rng.uniform_int(0, n_ports - 1));
    auto dst = static_cast<PortId>(rng.uniform_int(0, n_ports - 2));
    if (dst >= src) {
      ++dst;
    }
    voqs.add_flow(make_flow(id, src, dst, rng.uniform_int(1, 200),
                            rng.uniform01()));
  }
  return voqs;
}

/// Decides on an AoS candidate list by repacking it into lanes.
Decision decide_aos(Scheduler& scheduler, PortId n_ports,
                    const std::vector<VoqCandidate>& candidates) {
  CandidateSoA storage;
  return scheduler.decide(n_ports,
                          CandidateView::from_aos(candidates, storage));
}

// -------------------------------------------------------- build_candidates

TEST(BuildCandidates, OneEntryPerNonEmptyVoq) {
  VoqMatrix voqs(4);
  voqs.add_flow(make_flow(1, 0, 1, 10));
  voqs.add_flow(make_flow(2, 0, 1, 5));
  voqs.add_flow(make_flow(3, 2, 3, 7));
  const auto candidates = build_candidates(voqs, 1.0);
  ASSERT_EQ(candidates.size(), 2u);
  const auto voq01 = std::find_if(
      candidates.begin(), candidates.end(),
      [](const VoqCandidate& c) { return c.ingress == 0 && c.egress == 1; });
  ASSERT_NE(voq01, candidates.end());
  EXPECT_EQ(voq01->shortest_flow, 2);
  EXPECT_DOUBLE_EQ(voq01->shortest_remaining, 5.0);
  EXPECT_DOUBLE_EQ(voq01->backlog, 15.0);
  EXPECT_EQ(voq01->flow_count, 2u);
}

TEST(BuildCandidates, UnitConversionToPackets) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 3000));  // "bytes" now
  const auto candidates = build_candidates(voqs, 1500.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(candidates[0].backlog, 2.0);
  EXPECT_DOUBLE_EQ(candidates[0].shortest_remaining, 2.0);
}

TEST(BuildCandidates, OldestTracksArrival) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1, 5.0));
  voqs.add_flow(make_flow(2, 0, 1, 100, 1.0));
  const auto candidates = build_candidates(voqs, 1.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].shortest_flow, 1);
  EXPECT_EQ(candidates[0].oldest_flow, 2);
  EXPECT_DOUBLE_EQ(candidates[0].oldest_arrival, 1.0);
}

// --------------------------------------------------------- CandidateView

TEST(CandidateView, FromAosReproducesEveryLane) {
  Rng rng(41);
  const VoqMatrix voqs = random_state(8, 60, rng);
  const auto aos = build_candidates(voqs, 1.0, true);
  CandidateSoA storage;
  const CandidateView view = CandidateView::from_aos(aos, storage);
  ASSERT_EQ(view.size(), aos.size());
  ASSERT_TRUE(view.has_arrival_lane());
  for (std::size_t k = 0; k < aos.size(); ++k) {
    EXPECT_EQ(view.ingress()[k], aos[k].ingress);
    EXPECT_EQ(view.egress()[k], aos[k].egress);
    EXPECT_EQ(view.backlog()[k], aos[k].backlog);
    EXPECT_EQ(view.flow_count()[k],
              static_cast<std::uint32_t>(aos[k].flow_count));
    EXPECT_EQ(view.shortest_flow()[k], aos[k].shortest_flow);
    EXPECT_EQ(view.shortest_remaining()[k], aos[k].shortest_remaining);
    EXPECT_EQ(view.shortest_arrival()[k], aos[k].shortest_arrival);
    EXPECT_EQ(view.oldest_flow()[k], aos[k].oldest_flow);
    EXPECT_EQ(view.oldest_arrival()[k], aos[k].oldest_arrival);
  }
}

TEST(CandidateView, AbsentArrivalLaneThrowsConfigError) {
  Rng rng(42);
  const VoqMatrix voqs = random_state(4, 12, rng);
  const auto aos = build_candidates(voqs, 1.0, false);
  CandidateSoA storage;
  const CandidateView view =
      CandidateView::from_aos(aos, storage, /*with_arrival=*/false);
  EXPECT_FALSE(view.has_arrival_lane());
  EXPECT_THROW(view.oldest_flow(), ConfigError);
  EXPECT_THROW(view.oldest_arrival(), ConfigError);
}

TEST(CandidateView, SoaViewRejectsMismatchedLaneLengths) {
  Rng rng(43);
  const VoqMatrix voqs = random_state(4, 20, rng);
  CandidateSoA soa;
  soa.assign_from_aos(build_candidates(voqs, 1.0, true), true);
  EXPECT_NO_THROW(soa.view());
  soa.backlog.push_back(0.0);
  EXPECT_THROW(soa.view(), ConfigError);
  soa.backlog.pop_back();
  soa.shortest_flow.pop_back();
  EXPECT_THROW(soa.view(), ConfigError);
}

TEST(CandidateView, DeprecatedAosShimAgreesWithViewPath) {
  // A caller holding AoS candidate lists repacks each one with
  // CandidateView::from_aos into one scratch SoA it reuses. Storage
  // reused across lists of different lengths must not leak stale lanes
  // into the next decision.
  Rng rng(44);
  CandidateSoA reused;
  for (int trial = 0; trial < 5; ++trial) {
    const VoqMatrix voqs = random_state(8, 20 + 30 * (trial % 3), rng);
    const auto aos = build_candidates(voqs, 1.0, true);
    CandidateSoA fresh;
    fresh.assign_from_aos(aos, true);
    const CandidateView view = fresh.view();
    for (const char* spec :
         {"srpt", "fast-basrpt:v=2500", "threshold-srpt:threshold=2000",
          "maxweight", "fifo"}) {
      const auto scheduler = make_scheduler(SchedulerSpec::parse(spec));
      EXPECT_EQ(
          scheduler->decide(8, CandidateView::from_aos(aos, reused)).selected,
          scheduler->decide(8, view).selected)
          << spec << " trial " << trial;
    }
  }
}

// ------------------------------------------------------------------- SRPT

TEST(Srpt, PicksGloballyShortestThenBlocksPorts) {
  // Paper's Sec. III-A description: shortest flow first, then its ports
  // are blocked.
  VoqMatrix voqs(3);
  voqs.add_flow(make_flow(1, 0, 1, 2));    // globally shortest
  voqs.add_flow(make_flow(2, 0, 2, 5));    // blocked: shares ingress 0
  voqs.add_flow(make_flow(3, 2, 1, 4));    // blocked: shares egress 1
  voqs.add_flow(make_flow(4, 1, 2, 100));  // selectable
  SrptScheduler srpt;
  const auto decision = decide_aos(srpt, 3, build_candidates(voqs, 1.0));
  std::set<FlowId> selected(decision.selected.begin(),
                            decision.selected.end());
  EXPECT_EQ(selected, (std::set<FlowId>{1, 4}));
}

TEST(Srpt, DecisionIsMaximalMatching) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    VoqMatrix voqs = random_state(6, 30, rng);
    SrptScheduler srpt;
    const auto decision = decide_aos(srpt, 6, build_candidates(voqs, 1.0));
    EXPECT_TRUE(decision_is_matching(decision, voqs));
    // Maximality: no remaining flow has both ports free.
    std::set<PortId> in_used;
    std::set<PortId> out_used;
    for (FlowId id : decision.selected) {
      in_used.insert(voqs.flow(id).src);
      out_used.insert(voqs.flow(id).dst);
    }
    voqs.for_each_flow([&](const Flow& f) {
      EXPECT_TRUE(in_used.count(f.src) || out_used.count(f.dst))
          << "flow " << f.id << " was addable";
    });
  }
}

TEST(Srpt, IgnoresBacklogEntirely) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 3));
  for (FlowId id = 10; id < 40; ++id) {
    voqs.add_flow(make_flow(id, 1, 0, 5));  // huge opposing backlog
  }
  SrptScheduler srpt;
  const auto decision = decide_aos(srpt, 2, build_candidates(voqs, 1.0));
  // Both VOQs get served (disjoint ports), shortest first regardless of
  // the 30-flow backlog.
  EXPECT_EQ(decision.selected.size(), 2u);
  EXPECT_EQ(decision.selected[0], 1);
}

// ------------------------------------------------------------ fast BASRPT

TEST(FastBasrpt, HugeVDegeneratesToSrpt) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    VoqMatrix voqs = random_state(5, 25, rng);
    SrptScheduler srpt;
    FastBasrptScheduler basrpt(1e12);
    const auto candidates = build_candidates(voqs, 1.0);
    const auto a = decide_aos(srpt, 5, candidates);
    const auto b = decide_aos(basrpt, 5, candidates);
    EXPECT_EQ(std::set<FlowId>(a.selected.begin(), a.selected.end()),
              std::set<FlowId>(b.selected.begin(), b.selected.end()));
  }
}

TEST(FastBasrpt, ZeroVPrefersLongestQueues) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1));  // short flow, short queue
  // Opposing VOQ (1,0): long backlog.
  voqs.add_flow(make_flow(2, 1, 0, 50));
  voqs.add_flow(make_flow(3, 1, 0, 60));
  FastBasrptScheduler basrpt(0.0);
  const auto decision = decide_aos(basrpt, 2, build_candidates(voqs, 1.0));
  // Ports are disjoint so both get served; V=0 ranks VOQ (1,0) first.
  ASSERT_EQ(decision.selected.size(), 2u);
  EXPECT_EQ(decision.selected[0], 2);  // longest queue's shortest flow
}

TEST(FastBasrpt, BacklogOverridesSizeWhenQueueLongEnough) {
  // Key = (V/N)*size − backlog with V=4, N=2: a 1-packet flow in an empty
  // queue scores 2−1=1; a 10-packet flow in a 100-packet queue scores
  // 20−100=−80 and must win the shared egress port.
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1));
  voqs.add_flow(make_flow(2, 1, 1, 10));
  for (FlowId id = 10; id < 19; ++id) {
    voqs.add_flow(make_flow(id, 1, 1, 10));
  }
  FastBasrptScheduler basrpt(4.0);
  const auto decision = decide_aos(basrpt, 2, build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 1u);
  EXPECT_EQ(decision.selected[0], 2);
}

TEST(FastBasrpt, RejectsNegativeV) {
  EXPECT_THROW(FastBasrptScheduler(-1.0), ConfigError);
}

TEST(FastBasrpt, NameEncodesV) {
  EXPECT_EQ(FastBasrptScheduler(2500).name(), "fast-basrpt(V=2500)");
}

// ----------------------------------------------------------- exact BASRPT

TEST(ExactBasrpt, ObjectiveHelperMatchesDefinition) {
  VoqCandidate a;
  a.shortest_remaining = 4.0;
  a.backlog = 10.0;
  VoqCandidate b;
  b.shortest_remaining = 8.0;
  b.backlog = 2.0;
  // V*avg(sizes) − sum(backlogs) = 5*6 − 12 = 18.
  EXPECT_DOUBLE_EQ(ExactBasrptScheduler::objective(5.0, {a, b}), 18.0);
  EXPECT_DOUBLE_EQ(ExactBasrptScheduler::objective(5.0, {}), 0.0);
}

TEST(ExactBasrpt, BeatsOrTiesFastBasrptOnObjective) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    VoqMatrix voqs = random_state(4, 10, rng);
    const double v = 10.0 * (trial % 5 + 1);
    ExactBasrptScheduler exact(v);
    FastBasrptScheduler fast(v);
    const auto candidates = build_candidates(voqs, 1.0);

    const auto pick = [&](const Decision& d) {
      std::vector<VoqCandidate> chosen;
      for (FlowId id : d.selected) {
        const Flow& f = voqs.flow(id);
        for (const auto& c : candidates) {
          if (c.ingress == f.src && c.egress == f.dst) {
            chosen.push_back(c);
          }
        }
      }
      return chosen;
    };

    const double exact_obj = ExactBasrptScheduler::objective(
        v, pick(decide_aos(exact, 4, candidates)));
    const double fast_obj = ExactBasrptScheduler::objective(
        v, pick(decide_aos(fast, 4, candidates)));
    EXPECT_LE(exact_obj, fast_obj + 1e-9) << "trial " << trial;
  }
}

TEST(ExactBasrpt, SelectionIsValidMaximalMatching) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    VoqMatrix voqs = random_state(4, 8, rng);
    ExactBasrptScheduler exact(25.0);
    const auto decision = decide_aos(exact, 4, build_candidates(voqs, 1.0));
    EXPECT_TRUE(decision_is_matching(decision, voqs));
    EXPECT_GE(decision.selected.size(), 1u);
  }
}

TEST(ExactBasrpt, RefusesLargeFabric) {
  ExactBasrptScheduler exact(10.0, 4);
  VoqMatrix voqs(8);
  voqs.add_flow(make_flow(1, 0, 1, 1));
  EXPECT_THROW(decide_aos(exact, 8, build_candidates(voqs, 1.0)), ConfigError);
}

// -------------------------------------------------------- threshold SRPT

TEST(ThresholdSrpt, PromotesLongQueues) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1));  // tiny flow, tiny queue
  // VOQ (1,1)? invalid — use (1,0): long queue with big flows.
  for (FlowId id = 10; id < 15; ++id) {
    voqs.add_flow(make_flow(id, 1, 0, 400));
  }
  ThresholdSrptScheduler sched(1000.0);  // 5*400 = 2000 > 1000: promoted
  const auto decision = decide_aos(sched, 2, build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 2u);
  EXPECT_EQ(decision.selected[0], 10);  // promoted VOQ first
}

TEST(ThresholdSrpt, BelowThresholdBehavesLikeSrpt) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    VoqMatrix voqs = random_state(5, 15, rng);
    SrptScheduler srpt;
    ThresholdSrptScheduler sched(1e9);  // nothing promoted
    const auto candidates = build_candidates(voqs, 1.0);
    const auto a = decide_aos(srpt, 5, candidates);
    const auto b = decide_aos(sched, 5, candidates);
    EXPECT_EQ(std::set<FlowId>(a.selected.begin(), a.selected.end()),
              std::set<FlowId>(b.selected.begin(), b.selected.end()));
  }
}

// --------------------------------------------------------------- MaxWeight

TEST(MaxWeight, MaximizesBacklogWeight) {
  Rng rng(6);
  for (int trial = 0; trial < 15; ++trial) {
    VoqMatrix voqs = random_state(4, 12, rng);
    MaxWeightScheduler sched;
    const auto candidates = build_candidates(voqs, 1.0);
    const auto decision = decide_aos(sched, 4, candidates);
    EXPECT_TRUE(decision_is_matching(decision, voqs));

    // Compare against Hungarian ground truth on the backlog matrix.
    std::vector<std::vector<double>> weights(4, std::vector<double>(4, 0.0));
    for (const auto& c : candidates) {
      weights[static_cast<std::size_t>(c.ingress)]
             [static_cast<std::size_t>(c.egress)] = c.backlog;
    }
    const auto best = matching::max_weight_perfect(weights);
    double decision_weight = 0.0;
    for (FlowId id : decision.selected) {
      const Flow& f = voqs.flow(id);
      decision_weight += static_cast<double>(
          voqs.backlog(f.src, f.dst).count);
    }
    EXPECT_NEAR(decision_weight, matching::matching_weight(best, weights),
                1e-9);
  }
}

TEST(MaxWeight, ServesShortestWithinChosenVoq) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 50));
  voqs.add_flow(make_flow(2, 0, 1, 3));
  MaxWeightScheduler sched;
  const auto decision = decide_aos(sched, 2, build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 1u);
  EXPECT_EQ(decision.selected[0], 2);
}

// ------------------------------------------------------------------- FIFO

TEST(Fifo, ServesOldestRegardlessOfSize) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 1, 9.0));    // tiny but late
  voqs.add_flow(make_flow(2, 0, 1, 1000, 1.0));  // huge but early
  FifoScheduler sched;
  const auto decision = decide_aos(sched, 2, build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 1u);
  EXPECT_EQ(decision.selected[0], 2);
}

// -------------------------------------------------------------------- BvN

TEST(Bvn, ServesVoqsAtTheirGuaranteedRates) {
  // Uniform 0.8-load matrix on 4 ports; run many decisions over a static
  // backlog and check each VOQ is picked at frequency >= lambda.
  const PortId n = 4;
  const auto rates = switchsim::uniform_rates(n, 0.8);
  BvnScheduler sched(rates, Rng(7));

  VoqMatrix voqs(n);
  FlowId id = 0;
  for (PortId i = 0; i < n; ++i) {
    for (PortId j = 0; j < n; ++j) {
      if (i != j) {
        voqs.add_flow(make_flow(id++, i, j, 1'000'000));
      }
    }
  }
  const auto candidates = build_candidates(voqs, 1.0);
  std::map<std::pair<PortId, PortId>, int> served;
  const int rounds = 20'000;
  for (int r = 0; r < rounds; ++r) {
    const auto decision = decide_aos(sched, n, candidates);
    EXPECT_TRUE(decision_is_matching(decision, voqs));
    for (FlowId f : decision.selected) {
      const Flow& flow = voqs.flow(f);
      served[{flow.src, flow.dst}]++;
    }
  }
  const double lambda = 0.8 / 3.0;
  for (const auto& [voq, count] : served) {
    EXPECT_GE(static_cast<double>(count) / rounds, lambda - 0.02)
        << voq.first << "→" << voq.second;
  }
}

// ---------------------------------------------------------------- factory

TEST(Factory, PolicyRoundTrip) {
  for (const Policy p :
       {Policy::kSrpt, Policy::kFastBasrpt, Policy::kThresholdSrpt,
        Policy::kExactBasrpt, Policy::kMaxWeight, Policy::kFifo}) {
    EXPECT_EQ(parse_policy(to_string(p)), p);
  }
  EXPECT_THROW(parse_policy("nonsense"), ConfigError);
}

TEST(Factory, BuildsEverySpec) {
  EXPECT_EQ(make_scheduler(SchedulerSpec::srpt())->name(), "srpt");
  EXPECT_EQ(make_scheduler(SchedulerSpec::fast_basrpt(2500))->name(),
            "fast-basrpt(V=2500)");
  EXPECT_EQ(make_scheduler(SchedulerSpec::threshold_srpt(500))->name(),
            "threshold-srpt(T=500)");
  EXPECT_EQ(make_scheduler(SchedulerSpec::exact_basrpt(100))->name(),
            "exact-basrpt(V=100)");
  EXPECT_EQ(make_scheduler(SchedulerSpec::maxweight())->name(), "maxweight");
  EXPECT_EQ(make_scheduler(SchedulerSpec::fifo())->name(), "fifo");
}

// ---------------------------------------------- absolute decide oracle

/// Builds a randomized candidate set as SoA lanes. Shapes stress the
/// matcher's sort paths: exact ties and ±0.0 remaining sizes (the flow-id
/// tiebreak and the radix sort's coarse-key runs), backlogs on both sides
/// of a 2000-packet threshold, and (shape 1) near-sorted remaining sizes.
CandidateSoA make_grid(Rng& rng, std::size_t n, PortId ports, int shape) {
  CandidateSoA soa;
  soa.with_arrival = true;
  soa.resize_lanes(n);
  for (std::size_t k = 0; k < n; ++k) {
    soa.ingress[k] = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    soa.egress[k] = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    soa.backlog[k] = rng.bernoulli(0.5) ? rng.uniform(0.0, 2e3)
                                        : rng.uniform(0.0, 5e5);
    soa.flow_count[k] = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    soa.shortest_flow[k] = static_cast<FlowId>(k);  // distinct
    double sr = rng.uniform(0.0, 1e6);
    if (rng.bernoulli(0.1)) {
      sr = static_cast<double>(rng.uniform_int(0, 4)) * 1500.0;  // ties
    }
    if (rng.bernoulli(0.02)) {
      sr = rng.bernoulli(0.5) ? 0.0 : -0.0;
    }
    soa.shortest_remaining[k] = sr;
    soa.shortest_arrival[k] = rng.uniform(0.0, 10.0);
    soa.oldest_flow[k] = static_cast<FlowId>(k);
    soa.oldest_arrival[k] = rng.uniform(0.0, 10.0);
  }
  if (shape == 1) {
    // Near-sorted: ascending sizes with a few adjacent swaps.
    std::sort(soa.shortest_remaining.begin(), soa.shortest_remaining.end());
    for (int p = 0; p < 3 && n > 8; ++p) {
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform_int(1, n - 1));
      std::swap(soa.shortest_remaining[at], soa.shortest_remaining[at - 1]);
    }
  }
  return soa;
}

/// Reference greedy decision: key every candidate, stable-sort by
/// (key, flow id), then accept each candidate whose ingress and egress
/// are both still free.
std::vector<FlowId> reference_decision(
    const CandidateView& view, PortId ports,
    const std::function<double(double sr, double backlog)>& key) {
  struct Keyed {
    double key;
    std::size_t idx;
  };
  std::vector<Keyed> order;
  for (std::size_t k = 0; k < view.size(); ++k) {
    order.push_back({key(view.shortest_remaining()[k], view.backlog()[k]), k});
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](const Keyed& a, const Keyed& b) {
                     if (a.key != b.key) {
                       return a.key < b.key;
                     }
                     return view.shortest_flow()[a.idx] <
                            view.shortest_flow()[b.idx];
                   });
  std::vector<char> in_used(static_cast<std::size_t>(ports), 0);
  std::vector<char> out_used(static_cast<std::size_t>(ports), 0);
  std::vector<FlowId> selected;
  for (const Keyed& e : order) {
    const auto i = static_cast<std::size_t>(view.ingress()[e.idx]);
    const auto j = static_cast<std::size_t>(view.egress()[e.idx]);
    if (!in_used[i] && !out_used[j]) {
      in_used[i] = 1;
      out_used[j] = 1;
      selected.push_back(view.shortest_flow()[e.idx]);
    }
  }
  return selected;
}

TEST(DecideOracle, GreedyPoliciesMatchKeySortAndGreedyAccept) {
  const PortId ports = 24;
  const double v = 2500.0;
  const double threshold = 2000.0;
  const double class_offset = 1e12;  // threshold-SRPT's class separator
  struct Case {
    const char* spec;
    std::function<double(double, double)> key;
  };
  const Case cases[] = {
      {"srpt", [](double sr, double) { return sr; }},
      // Fast BASRPT: (V/N) * remaining - X_ij.
      {"fast-basrpt:v=2500",
       [&](double sr, double backlog) {
         return v / static_cast<double>(ports) * sr - backlog;
       }},
      // Threshold SRPT: VOQs above the threshold first, each class by size.
      {"threshold-srpt:threshold=2000",
       [&](double sr, double backlog) {
         return sr + (backlog > threshold ? 0.0 : class_offset);
       }},
  };
  // n = 3 takes the matcher's comparison sort, 200 and 3000 its radix sort.
  static_assert(matching::GreedyMatcher::kRadixThreshold > 3 &&
                matching::GreedyMatcher::kRadixThreshold <= 200);
  Rng rng(21);
  for (const Case& c : cases) {
    auto scheduler = make_scheduler(SchedulerSpec::parse(c.spec));
    for (int shape = 0; shape < 2; ++shape) {
      for (const std::size_t n : {3ul, 200ul, 3000ul}) {
        const CandidateSoA soa = make_grid(rng, n, ports, shape);
        const CandidateView view = soa.view();
        EXPECT_EQ(scheduler->decide(ports, view).selected,
                  reference_decision(view, ports, c.key))
            << c.spec << " shape=" << shape << " n=" << n;
      }
    }
  }
}

TEST(DecideOracle, FastBasrptKeysMatchPaperFormulaBitForBit) {
  // fast_basrpt_keys must write weight * sr - backlog with exactly two
  // roundings (multiply, then subtract), including the sign of a zero key
  // and at every length, so the greedy order it feeds is reproducible.
  Rng rng(22);
  for (const double weight : {0.0, 2500.0 / 24.0, 1.0, 1e3}) {
    for (int shape = 0; shape < 2; ++shape) {
      for (const std::size_t n : {0ul, 1ul, 3ul, 7ul, 200ul, 3001ul}) {
        const CandidateSoA soa = make_grid(rng, n, 24, shape);
        std::vector<double> keys(n, -1.0);
        fast_basrpt_keys(weight, soa.shortest_remaining.data(),
                         soa.backlog.data(), n, keys.data());
        for (std::size_t i = 0; i < n; ++i) {
          const double product = weight * soa.shortest_remaining[i];
          const double expected = product - soa.backlog[i];
          ASSERT_EQ(std::bit_cast<std::uint64_t>(keys[i]),
                    std::bit_cast<std::uint64_t>(expected))
              << "weight=" << weight << " shape=" << shape << " n=" << n
              << " i=" << i;
        }
      }
    }
  }
}

// ------------------------------------------------------ decision checking

TEST(DecisionIsMatching, RejectsPortReuseAndUnknownFlows) {
  VoqMatrix voqs(3);
  voqs.add_flow(make_flow(1, 0, 1, 5));
  voqs.add_flow(make_flow(2, 0, 2, 5));
  voqs.add_flow(make_flow(3, 2, 1, 5));
  EXPECT_FALSE(decision_is_matching({{1, 2}}, voqs));  // ingress 0 reused
  EXPECT_FALSE(decision_is_matching({{1, 3}}, voqs));  // egress 1 reused
  EXPECT_FALSE(decision_is_matching({{99}}, voqs));    // unknown flow
  EXPECT_FALSE(decision_is_matching({{1, 1}}, voqs));  // duplicate
  EXPECT_TRUE(decision_is_matching({{2, 3}}, voqs));
}

}  // namespace
}  // namespace basrpt::sched
