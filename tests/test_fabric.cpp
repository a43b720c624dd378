// Tests for src/fabric: CandidateCache differential equivalence against
// build_candidates (the from-scratch oracle), FlowLifecycle accounting,
// preemption-diff semantics and decide-site metrics, and end-to-end
// tracer regressions that pin the refactored simulators to the event
// streams the pre-fabric code emitted on the same scripted runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "fabric/candidate_cache.hpp"
#include "fabric/flow_lifecycle.hpp"
#include "flowsim/flow_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pktsim/packet_sim.hpp"
#include "queueing/voq.hpp"
#include "sched/scheduler.hpp"
#include "sched/srpt.hpp"
#include "switchsim/slotted_sim.hpp"
#include "topo/topology.hpp"
#include "workload/traffic.hpp"

namespace basrpt::fabric {
namespace {

// ------------------------------------------------------ CandidateCache

void expect_candidates_equal(const sched::CandidateView& got,
                             const std::vector<sched::VoqCandidate>& want,
                             bool with_arrival) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.has_arrival_lane(), with_arrival);
  for (std::size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(got.ingress()[k], want[k].ingress);
    EXPECT_EQ(got.egress()[k], want[k].egress);
    EXPECT_EQ(got.backlog()[k], want[k].backlog);
    EXPECT_EQ(got.flow_count()[k], want[k].flow_count);
    EXPECT_EQ(got.shortest_flow()[k], want[k].shortest_flow);
    EXPECT_EQ(got.shortest_remaining()[k], want[k].shortest_remaining);
    EXPECT_EQ(got.shortest_arrival()[k], want[k].shortest_arrival);
    if (with_arrival) {
      EXPECT_EQ(got.oldest_flow()[k], want[k].oldest_flow);
      EXPECT_EQ(got.oldest_arrival()[k], want[k].oldest_arrival);
    }
  }
}

/// Randomized churn (add / partial drain / drain-to-completion / remove)
/// against one VoqMatrix; after every batch of mutations the cache's
/// incremental SoA view must equal the from-scratch AoS build, lane for
/// lane and in the same order.
void run_churn(queueing::PortId ports, double unit_bytes, bool with_arrival,
               std::uint64_t seed) {
  Rng rng(seed);
  queueing::VoqMatrix voqs(ports);
  CandidateCache cache(voqs, unit_bytes, with_arrival);
  std::vector<queueing::FlowId> live;
  queueing::FlowId next_id = 0;

  for (int step = 0; step < 1500; ++step) {
    const double u = rng.uniform01();
    if (live.empty() || u < 0.5) {
      queueing::Flow f;
      f.id = next_id++;
      f.src = static_cast<queueing::PortId>(rng.uniform_int(0, ports - 1));
      f.dst = static_cast<queueing::PortId>(rng.uniform_int(0, ports - 2));
      if (f.dst >= f.src) {
        ++f.dst;  // src != dst, uniform over the rest
      }
      f.size = Bytes{rng.uniform_int(1, 400)};
      f.remaining = f.size;
      f.arrival = SimTime{static_cast<double>(step) * 1e-3};
      voqs.add_flow(f);
      live.push_back(f.id);
    } else if (u < 0.85) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const queueing::FlowId id = live[pick];
      const Bytes amount{rng.uniform_int(1, 200)};
      if (voqs.drain(id, amount)) {
        live[pick] = live.back();
        live.pop_back();
      }
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      voqs.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }

    // Refresh at a varying cadence so dirt accumulates across several
    // mutations (the steady-state pattern) as well as one at a time.
    if (step % 7 == 0 || step + 1 == 1500) {
      expect_candidates_equal(
          cache.refresh(),
          sched::build_candidates(voqs, unit_bytes, with_arrival),
          with_arrival);
    }
  }
}

TEST(CandidateCache, MatchesFromScratchBuildUnderRandomChurn) {
  for (const queueing::PortId ports : {2, 4, 16, 33}) {
    SCOPED_TRACE(ports);
    run_churn(ports, /*unit_bytes=*/1.0, /*with_arrival=*/true,
              /*seed=*/1000 + static_cast<std::uint64_t>(ports));
  }
}

TEST(CandidateCache, MatchesOracleWithoutArrivalLaneAndFractionalUnit) {
  for (const queueing::PortId ports : {4, 16}) {
    SCOPED_TRACE(ports);
    run_churn(ports, /*unit_bytes=*/1500.0, /*with_arrival=*/false,
              /*seed=*/7700 + static_cast<std::uint64_t>(ports));
  }
}

TEST(CandidateCache, AbsentArrivalLaneIsAConfigErrorNotZeros) {
  queueing::VoqMatrix voqs(4);
  queueing::Flow f;
  f.id = 0;
  f.src = 0;
  f.dst = 1;
  f.size = Bytes{10};
  f.remaining = f.size;
  f.arrival = SimTime{3.5};
  voqs.add_flow(f);

  CandidateCache cache(voqs, 1.0, /*with_arrival=*/false);
  const auto& view = cache.refresh();
  ASSERT_EQ(view.size(), 1u);
  EXPECT_FALSE(view.has_arrival_lane());
  EXPECT_EQ(view.shortest_flow()[0], 0);
  EXPECT_THROW(view.oldest_flow(), ConfigError);
  EXPECT_THROW(view.oldest_arrival(), ConfigError);
}

TEST(CandidateCache, RecomputesOnlyDirtyVoqs) {
  queueing::VoqMatrix voqs(8);
  CandidateCache cache(voqs, 1.0);
  for (queueing::FlowId id = 0; id < 6; ++id) {
    queueing::Flow f;
    f.id = id;
    f.src = static_cast<queueing::PortId>(id);
    f.dst = static_cast<queueing::PortId>(id + 1);
    f.size = Bytes{100};
    f.remaining = f.size;
    voqs.add_flow(f);
  }
  ASSERT_EQ(cache.refresh().size(), 6u);
  EXPECT_EQ(cache.voqs_recomputed(), 6);

  // A clean refresh recomputes nothing.
  cache.refresh();
  EXPECT_EQ(cache.voqs_recomputed(), 6);
  EXPECT_EQ(cache.refreshes(), 2);

  // One drained VOQ dirties exactly one entry.
  voqs.drain(3, Bytes{10});
  const auto& view = cache.refresh();
  EXPECT_EQ(cache.voqs_recomputed(), 7);
  ASSERT_EQ(view.size(), 6u);
  for (std::size_t k = 0; k < view.size(); ++k) {
    if (view.shortest_flow()[k] == 3) {
      EXPECT_EQ(view.backlog()[k], 90.0);
    }
  }
}

// ------------------------------------------------------- FlowLifecycle

TEST(FlowLifecycle, AllocatesIdsAndCountsArrivals) {
  queueing::VoqMatrix voqs(4);
  stats::FctAggregator fct;
  FlowLifecycle lifecycle(&voqs, fct, /*tracer=*/nullptr);
  lifecycle.begin_run();

  EXPECT_EQ(lifecycle.admit({0, 1, Bytes{100}, SimTime{0.0},
                             stats::FlowClass::kBackground}),
            0);
  EXPECT_EQ(lifecycle.admit({2, 3, Bytes{50}, SimTime{1.0},
                             stats::FlowClass::kQuery}),
            1);
  EXPECT_EQ(lifecycle.flows_arrived(), 2);
  EXPECT_EQ(lifecycle.bytes_arrived(), Bytes{150});
  EXPECT_EQ(voqs.active_flows(), 2u);
  EXPECT_TRUE(voqs.contains(0));
  EXPECT_TRUE(voqs.contains(1));

  lifecycle.record_completion(stats::FlowClass::kQuery, 1, 2, 3, Bytes{50},
                              SimTime{0.5}, /*trace_time=*/1.5);
  EXPECT_EQ(lifecycle.flows_completed(), 1);
  EXPECT_EQ(fct.completed_total(), 1);
}

TEST(FlowLifecycle, PreemptionDiffKeepsOrderAndSkipsCompleted) {
  queueing::VoqMatrix voqs(8);
  stats::FctAggregator fct;
  obs::FlowTracer tracer;
  FlowLifecycle lifecycle(&voqs, fct, &tracer);
  lifecycle.begin_run();
  for (queueing::FlowId id = 0; id < 5; ++id) {
    lifecycle.admit({static_cast<PortId>(id), static_cast<PortId>(id + 1),
                     Bytes{10}, SimTime{0.0},
                     stats::FlowClass::kBackground});
  }

  // First decision: first-service events in selection order.
  lifecycle.apply_decision({4, 0, 2}, /*now=*/1.0);
  ASSERT_EQ(tracer.size(), 5 + 3u);
  EXPECT_EQ(tracer.records()[5].event, obs::FlowEvent::kFirstService);
  EXPECT_EQ(tracer.records()[5].flow, 4);
  EXPECT_EQ(tracer.records()[6].flow, 0);
  EXPECT_EQ(tracer.records()[7].flow, 2);

  // Flow 0 completes, flows 4 and 2 fall out of the selection: only the
  // still-queued ones are preempted, in previous-decision order (4 then
  // 2), and the retained flow 1... (none retained here).
  voqs.drain(0, Bytes{10});
  lifecycle.apply_decision({1}, /*now=*/2.0);
  const auto& records = tracer.records();
  ASSERT_EQ(records.size(), 8 + 3u);
  EXPECT_EQ(records[8].event, obs::FlowEvent::kPreemption);
  EXPECT_EQ(records[8].flow, 4);
  EXPECT_EQ(records[8].remaining, 10.0);
  EXPECT_EQ(records[9].event, obs::FlowEvent::kPreemption);
  EXPECT_EQ(records[9].flow, 2);
  EXPECT_EQ(records[10].event, obs::FlowEvent::kFirstService);
  EXPECT_EQ(records[10].flow, 1);

  // Re-selecting a previously served flow emits nothing new for it.
  lifecycle.apply_decision({4, 1}, /*now=*/3.0);
  EXPECT_EQ(tracer.size(), 11u);
}

// Scheduler whose decisions are scripted, so the decide site's counters
// can be checked against hand-computed selected-set diffs.
class ScriptedScheduler : public sched::Scheduler {
 public:
  explicit ScriptedScheduler(std::vector<std::vector<FlowId>> script)
      : script_(std::move(script)) {}
  std::string name() const override { return "scripted"; }
  void decide_into(PortId, const sched::CandidateView&,
                   sched::Decision& out) override {
    out.selected.clear();
    if (calls_ < script_.size()) {
      out.selected = script_[calls_];
    }
    ++calls_;
  }

 private:
  std::vector<std::vector<FlowId>> script_;
  std::size_t calls_ = 0;
};

std::vector<sched::VoqCandidate> fake_candidates(std::size_t n) {
  std::vector<sched::VoqCandidate> candidates(n);
  for (std::size_t i = 0; i < n; ++i) {
    candidates[i].ingress = static_cast<PortId>(i);
    candidates[i].egress = static_cast<PortId>(i);
  }
  return candidates;
}

TEST(FlowLifecycle, DecideCountsDecisionsAndPreemptions) {
  const bool was_enabled = obs::enabled();
  obs::Registry registry;
  const obs::ScopedRegistryBind bind(&registry);
  queueing::VoqMatrix voqs(4);
  stats::FctAggregator fct;
  sched::CandidateSoA storage;
  sched::Decision out;

  // With obs off the decide site records nothing.
  obs::set_enabled(false);
  {
    FlowLifecycle quiet(&voqs, fct, /*tracer=*/nullptr);
    ScriptedScheduler scripted({{1, 2}});
    quiet.decide(scripted, 4,
                 sched::CandidateView::from_aos(fake_candidates(3), storage),
                 out);
    EXPECT_EQ(out.selected, (std::vector<FlowId>{1, 2}));
    EXPECT_TRUE(registry.empty());
  }

  obs::set_enabled(true);
  FlowLifecycle lifecycle(&voqs, fct, /*tracer=*/nullptr);
  ScriptedScheduler scripted({{1, 2}, {2, 3}, {}, {5}});
  const std::size_t n_candidates[] = {3, 2, 0, 1};
  // Nothing before; flow 1 dropped; 2 and 3 dropped; {} -> {5} drops none.
  const std::int64_t preempted[] = {0, 1, 2, 0};
  std::int64_t total = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    SCOPED_TRACE(k);
    lifecycle.decide(scripted, 4,
                     sched::CandidateView::from_aos(
                         fake_candidates(n_candidates[k]), storage),
                     out);
    total += preempted[k];
    EXPECT_EQ(registry.counters().at("sched.preemptions").value(), total);
  }
  obs::set_enabled(was_enabled);

  EXPECT_EQ(out.selected, std::vector<FlowId>{5});  // raw output untouched
  EXPECT_EQ(registry.counters().at("sched.decisions").value(), 4);
  EXPECT_EQ(registry.counters().at("sched.preemptions").value(), 3);
  EXPECT_EQ(registry.histograms().at("sched.decision_ns").count(), 4u);
  const obs::LatencyHistogram& candidates =
      registry.histograms().at("sched.candidates");
  EXPECT_EQ(candidates.count(), 4u);
  EXPECT_EQ(candidates.sum(), 6u);
  EXPECT_EQ(candidates.max(), 3u);
  const obs::LatencyHistogram& matching =
      registry.histograms().at("sched.matching_size");
  EXPECT_EQ(matching.count(), 4u);
  EXPECT_EQ(matching.sum(), 5u);
  EXPECT_EQ(matching.max(), 2u);
}

// ------------------------------------------- tracer regressions (seed)

struct ExpectedEvent {
  obs::FlowEvent event;
  std::int64_t flow;
  std::int32_t src;
  std::int32_t dst;
  double time_sec;
  double size;
  double remaining;
};

void expect_trace(const obs::FlowTracer& tracer,
                  const std::vector<ExpectedEvent>& expected) {
  const auto& records = tracer.records();
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(records[k].event, expected[k].event);
    EXPECT_EQ(records[k].flow, expected[k].flow);
    EXPECT_EQ(records[k].src, expected[k].src);
    EXPECT_EQ(records[k].dst, expected[k].dst);
    EXPECT_DOUBLE_EQ(records[k].time_sec, expected[k].time_sec);
    EXPECT_DOUBLE_EQ(records[k].size, expected[k].size);
    EXPECT_DOUBLE_EQ(records[k].remaining, expected[k].remaining);
  }
}

/// Event stream captured from the pre-fabric slotted simulator on this
/// scripted run (4 ports, SRPT, 4 arrivals). The preemption-diff
/// rewrite (hash-set membership instead of nested std::find) must
/// reproduce it exactly, including event order within a slot.
TEST(TracerRegression, SlottedSrptMatchesPreFabricEventStream) {
  obs::FlowTracer tracer;
  switchsim::SlottedConfig config;
  config.n_ports = 4;
  config.horizon = 16;
  config.tracer = &tracer;
  std::vector<switchsim::SlottedArrival> arrivals = {
      {0, 0, 1, 5, stats::FlowClass::kBackground},
      {1, 0, 1, 2, stats::FlowClass::kQuery},
      {2, 2, 1, 1, stats::FlowClass::kQuery},
      {3, 1, 0, 3, stats::FlowClass::kBackground},
  };
  sched::SrptScheduler srpt;
  const auto result = switchsim::run_slotted(
      config, srpt, switchsim::stream_from_vector(arrivals));
  EXPECT_EQ(result.delivered_packets, 11);
  EXPECT_EQ(result.fct.completed_total(), 4);
  expect_trace(tracer, {
      {obs::FlowEvent::kArrival, 0, 0, 1, 0, 5, 5},
      {obs::FlowEvent::kFirstService, 0, 0, 1, 0, 5, 5},
      {obs::FlowEvent::kArrival, 1, 0, 1, 1, 2, 2},
      {obs::FlowEvent::kPreemption, 0, 0, 1, 1, 5, 4},
      {obs::FlowEvent::kFirstService, 1, 0, 1, 1, 2, 2},
      {obs::FlowEvent::kArrival, 2, 2, 1, 2, 1, 1},
      {obs::FlowEvent::kCompletion, 1, 0, 1, 2, 2, 0},
      {obs::FlowEvent::kArrival, 3, 1, 0, 3, 3, 3},
      {obs::FlowEvent::kFirstService, 2, 2, 1, 3, 1, 1},
      {obs::FlowEvent::kFirstService, 3, 1, 0, 3, 3, 3},
      {obs::FlowEvent::kCompletion, 2, 2, 1, 3, 1, 0},
      {obs::FlowEvent::kCompletion, 3, 1, 0, 5, 3, 0},
      {obs::FlowEvent::kCompletion, 0, 0, 1, 7, 5, 0},
  });
}

/// Same capture for the flow-level simulator. The double preemption at
/// t = 0.0003 (flows 2 then 0, in serving order) is the case the old
/// O(S²) diff loops got right by iterating the previous selection in
/// order — the regression this test pins.
TEST(TracerRegression, FlowSimSrptMatchesPreFabricEventStream) {
  obs::FlowTracer tracer;
  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric();
  config.horizon = seconds(1.0);
  config.tracer = &tracer;
  std::vector<workload::FlowArrival> arrivals = {
      {seconds(0.0), 0, 1, Bytes{1'500'000}, stats::FlowClass::kBackground},
      {seconds(0.0001), 0, 1, Bytes{150'000}, stats::FlowClass::kQuery},
      {seconds(0.0002), 2, 3, Bytes{300'000}, stats::FlowClass::kQuery},
      {seconds(0.0003), 2, 1, Bytes{3'000}, stats::FlowClass::kQuery},
  };
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic(std::move(arrivals));
  const auto result = flowsim::run_flow_sim(config, srpt, traffic);
  EXPECT_EQ(result.flows_completed, 4);
  expect_trace(tracer, {
      {obs::FlowEvent::kArrival, 0, 0, 1, 0.0, 1500000, 1500000},
      {obs::FlowEvent::kFirstService, 0, 0, 1, 0.0, 1500000, 1500000},
      {obs::FlowEvent::kArrival, 1, 0, 1, 0.0001, 150000, 150000},
      {obs::FlowEvent::kPreemption, 0, 0, 1, 0.0001, 1500000, 1375000},
      {obs::FlowEvent::kFirstService, 1, 0, 1, 0.0001, 150000, 150000},
      {obs::FlowEvent::kArrival, 2, 2, 3, 0.0002, 300000, 300000},
      {obs::FlowEvent::kFirstService, 2, 2, 3, 0.0002, 300000, 300000},
      {obs::FlowEvent::kCompletion, 1, 0, 1, 0.00022, 150000, 0},
      {obs::FlowEvent::kArrival, 3, 2, 1, 0.0003, 3000, 3000},
      {obs::FlowEvent::kPreemption, 2, 2, 3, 0.0003, 300000, 175000},
      {obs::FlowEvent::kPreemption, 0, 0, 1, 0.0003, 1500000, 1275000},
      {obs::FlowEvent::kFirstService, 3, 2, 1, 0.0003, 3000, 3000},
      {obs::FlowEvent::kCompletion, 3, 2, 1, 0.0003024, 3000, 0},
      {obs::FlowEvent::kCompletion, 2, 2, 3, 0.0004424, 300000, 0},
      {obs::FlowEvent::kCompletion, 0, 0, 1, 0.0013224, 1500000, 0},
  });
}

/// pktsim gained tracer wiring with the fabric refactor: every flow
/// emits arrival -> first-service -> completion, and the per-packet
/// model never preempts (a deprioritized flow just waits).
TEST(TracerRegression, PacketSimEmitsLifecycleWithoutPreemptions) {
  obs::FlowTracer tracer;
  pktsim::PacketSimConfig config;
  config.hosts = 2;
  config.horizon = seconds(0.01);
  config.tracer = &tracer;
  std::vector<workload::FlowArrival> arrivals = {
      {seconds(0.0), 0, 1, Bytes{30'000}, stats::FlowClass::kBackground},
      {seconds(0.000001), 0, 1, Bytes{3'000}, stats::FlowClass::kQuery},
  };
  workload::VectorTraffic traffic(std::move(arrivals));
  const auto result = pktsim::run_packet_sim(config, traffic);
  EXPECT_EQ(result.flows_completed, 2);

  int arrivals_seen = 0, first_service = 0, completions = 0;
  for (const auto& r : tracer.records()) {
    switch (r.event) {
      case obs::FlowEvent::kArrival: ++arrivals_seen; break;
      case obs::FlowEvent::kFirstService: ++first_service; break;
      case obs::FlowEvent::kCompletion: ++completions; break;
      case obs::FlowEvent::kPreemption: FAIL() << "pktsim preempted"; break;
    }
  }
  EXPECT_EQ(arrivals_seen, 2);
  EXPECT_EQ(first_service, 2);
  EXPECT_EQ(completions, 2);
  // The short flow (id 1, SRPT) finishes before the long one.
  const auto& records = tracer.records();
  std::int64_t first_completed = -1;
  for (const auto& r : records) {
    if (r.event == obs::FlowEvent::kCompletion) {
      first_completed = r.flow;
      break;
    }
  }
  EXPECT_EQ(first_completed, 1);
}

}  // namespace
}  // namespace basrpt::fabric
