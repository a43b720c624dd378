// Unit tests for src/fault: plan round-trip and validation, injector
// transition semantics, candidate-cache port masking, the stall
// watchdog, and the end-to-end guarantees the simulators make under
// injected faults (conservation, determinism, pay-for-use).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "fabric/candidate_cache.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/watchdog.hpp"
#include "flowsim/flow_sim.hpp"
#include "obs/heartbeat.hpp"
#include "queueing/voq.hpp"
#include "sched/fast_basrpt.hpp"
#include "sched/srpt.hpp"
#include "workload/generators.hpp"
#include "workload/traffic.hpp"

namespace basrpt {
namespace {

using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;

FaultPlan sample_plan() {
  FaultPlan plan;
  FaultEvent degrade;
  degrade.kind = FaultKind::kDegrade;
  degrade.start = 0.5;
  degrade.duration = 1.0;
  degrade.port = 3;
  degrade.factor = 0.25;
  plan.add(degrade);
  FaultEvent blackout;
  blackout.kind = FaultKind::kBlackout;
  blackout.start = 1.0;
  blackout.duration = 0.2;
  blackout.port = 7;
  plan.add(blackout);
  FaultEvent drop;
  drop.kind = FaultKind::kDropDecisions;
  drop.start = 2.0;
  drop.duration = 0.05;
  plan.add(drop);
  FaultEvent rearrive;
  rearrive.kind = FaultKind::kRearrival;
  rearrive.start = 2.5;
  rearrive.count = 64;
  plan.add(rearrive);
  return plan;
}

// ------------------------------------------------------------------ plan

TEST(FaultPlan, RoundTripPreservesEveryEvent) {
  const FaultPlan original = sample_plan();
  std::stringstream buffer;
  original.write(buffer);
  const FaultPlan restored = FaultPlan::parse(buffer);
  EXPECT_TRUE(restored == original);
}

TEST(FaultPlan, EventsKeptSortedByStart) {
  FaultPlan plan;
  FaultEvent late;
  late.kind = FaultKind::kRearrival;
  late.start = 5.0;
  late.count = 1;
  plan.add(late);
  FaultEvent early = late;
  early.start = 1.0;
  plan.add(early);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.events()[0].start, 1.0);
  EXPECT_DOUBLE_EQ(plan.events()[1].start, 5.0);
}

TEST(FaultPlan, MaxPortAndSpan) {
  const FaultPlan plan = sample_plan();
  EXPECT_EQ(plan.max_port(), 7);
  // Last window is the instant rearrival at 2.5.
  EXPECT_DOUBLE_EQ(plan.span(), 2.5);
  EXPECT_EQ(FaultPlan().max_port(), -1);
}

TEST(FaultPlan, AddRejectsInvalidEvents) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kDegrade;
  e.start = -1.0;
  e.duration = 1.0;
  e.port = 0;
  e.factor = 0.5;
  EXPECT_THROW(plan.add(e), ConfigError);
  e.start = 0.0;
  e.factor = 0.0;  // zero capacity is a blackout, not a degrade
  EXPECT_THROW(plan.add(e), ConfigError);
  e.factor = 1.5;
  EXPECT_THROW(plan.add(e), ConfigError);
  e.factor = 0.5;
  e.duration = 0.0;
  EXPECT_THROW(plan.add(e), ConfigError);
  e.kind = FaultKind::kRearrival;
  e.count = 0;
  EXPECT_THROW(plan.add(e), ConfigError);
}

TEST(FaultPlan, ParseRejectsMalformedInput) {
  {
    std::stringstream bad("not-a-fault-plan\n");
    EXPECT_THROW(FaultPlan::parse(bad), ConfigError);
  }
  {
    std::stringstream bad("basrpt-faults-v1\nmeteor-strike,1.0,0.5\n");
    EXPECT_THROW(FaultPlan::parse(bad), ConfigError);
  }
  {
    // degrade wants 4 arguments.
    std::stringstream bad("basrpt-faults-v1\ndegrade,1.0,0.5,3\n");
    EXPECT_THROW(FaultPlan::parse(bad), ConfigError);
  }
  {
    // Overflowing number: stod throws out_of_range, which must be
    // translated, not escape.
    std::stringstream bad("basrpt-faults-v1\ndegrade,1e999,0.5,3,0.5\n");
    EXPECT_THROW(FaultPlan::parse(bad), ConfigError);
  }
  {
    // Trailing garbage in a number.
    std::stringstream bad("basrpt-faults-v1\nblackout,1.0x,0.5,3\n");
    EXPECT_THROW(FaultPlan::parse(bad), ConfigError);
  }
  {
    // Truncated final line (no newline) == partial write.
    std::stringstream bad("basrpt-faults-v1\nrearrive,1.0,64");
    EXPECT_THROW(FaultPlan::parse(bad), ConfigError);
  }
}

TEST(FaultPlan, ParseErrorCarriesLineNumber) {
  std::stringstream bad(
      "basrpt-faults-v1\n# fine\nrearrive,1.0,64\nblackout,bad,0.5,3\n");
  try {
    FaultPlan::parse(bad);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4u);
  }
}

TEST(FaultPlan, ParseToleratesCrlfAndComments) {
  std::stringstream in(
      "basrpt-faults-v1\r\n# comment\r\n\r\nrearrive,1.0,64\r\n");
  const FaultPlan plan = FaultPlan::parse(in);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kRearrival);
  EXPECT_EQ(plan.events()[0].count, 64);
}

TEST(FaultPlan, RandomizedIsDeterministicInSeed) {
  fault::RandomFaultSpec spec;
  spec.ports = 16;
  spec.horizon = 10.0;
  const FaultPlan a = FaultPlan::randomized(spec, 42);
  const FaultPlan b = FaultPlan::randomized(spec, 42);
  const FaultPlan c = FaultPlan::randomized(spec, 43);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  // Every event stays inside the spec's time band and port range.
  for (const FaultEvent& e : a.events()) {
    EXPECT_GE(e.start, 0.05 * spec.horizon);
    EXPECT_LE(e.start, 0.85 * spec.horizon);
    EXPECT_LT(e.port, spec.ports);
  }
}

TEST(FaultPlan, RandomizedRoundTripsThroughText) {
  fault::RandomFaultSpec spec;
  spec.ports = 24;
  spec.horizon = 8.0;
  const FaultPlan original = FaultPlan::randomized(spec, 7);
  ASSERT_FALSE(original.empty());
  std::stringstream buffer;
  original.write(buffer);
  EXPECT_TRUE(FaultPlan::parse(buffer) == original);
}

// -------------------------------------------------------------- injector

TEST(FaultInjector, PortFactorFollowsWindows) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kDegrade;
  e.start = 1.0;
  e.duration = 1.0;
  e.port = 2;
  e.factor = 0.4;
  plan.add(e);
  FaultInjector inj(plan, 8, {});
  EXPECT_DOUBLE_EQ(inj.port_factor(2), 1.0);
  inj.advance_to(1.0);
  EXPECT_DOUBLE_EQ(inj.port_factor(2), 0.4);
  EXPECT_TRUE(inj.port_usable(2));
  EXPECT_DOUBLE_EQ(inj.port_factor(3), 1.0);  // other ports untouched
  inj.advance_to(2.0);
  EXPECT_DOUBLE_EQ(inj.port_factor(2), 1.0);
  EXPECT_TRUE(inj.done());
  EXPECT_EQ(inj.stats().transitions, 2);  // open + close
}

TEST(FaultInjector, OverlappingWindowsTakeTheMinimumFactor) {
  FaultPlan plan;
  FaultEvent a;
  a.kind = FaultKind::kDegrade;
  a.start = 0.0;
  a.duration = 4.0;
  a.port = 1;
  a.factor = 0.6;
  plan.add(a);
  FaultEvent b = a;
  b.start = 1.0;
  b.duration = 1.0;
  b.factor = 0.3;
  plan.add(b);
  FaultEvent dark = a;
  dark.kind = FaultKind::kBlackout;
  dark.start = 2.0;
  dark.duration = 1.0;
  plan.add(dark);
  FaultInjector inj(plan, 4, {});
  inj.advance_to(0.5);
  EXPECT_DOUBLE_EQ(inj.port_factor(1), 0.6);
  inj.advance_to(1.5);
  EXPECT_DOUBLE_EQ(inj.port_factor(1), 0.3);  // min over open windows
  inj.advance_to(2.5);
  EXPECT_DOUBLE_EQ(inj.port_factor(1), 0.0);  // blackout wins
  EXPECT_FALSE(inj.port_usable(1));
  inj.advance_to(3.5);
  EXPECT_DOUBLE_EQ(inj.port_factor(1), 0.6);  // back to the outer degrade
  inj.advance_to(10.0);
  EXPECT_DOUBLE_EQ(inj.port_factor(1), 1.0);
}

TEST(FaultInjector, HooksFireOnlyOnEffectiveChange) {
  FaultPlan plan;
  FaultEvent outer;
  outer.kind = FaultKind::kDegrade;
  outer.start = 0.0;
  outer.duration = 4.0;
  outer.port = 0;
  outer.factor = 0.5;
  plan.add(outer);
  // Inner window with a *milder* factor: opening and closing it never
  // changes the effective min, so the hook must stay quiet.
  FaultEvent inner = outer;
  inner.start = 1.0;
  inner.duration = 1.0;
  inner.factor = 0.8;
  plan.add(inner);
  std::vector<double> factors;
  fault::FaultHooks hooks;
  hooks.on_port_factor = [&](std::int32_t port, double factor) {
    EXPECT_EQ(port, 0);
    factors.push_back(factor);
  };
  FaultInjector inj(plan, 2, hooks);
  inj.advance_to(10.0);
  ASSERT_EQ(factors.size(), 2u);
  EXPECT_DOUBLE_EQ(factors[0], 0.5);
  EXPECT_DOUBLE_EQ(factors[1], 1.0);
}

TEST(FaultInjector, DecisionSuppressionWindowsNest) {
  FaultPlan plan;
  FaultEvent a;
  a.kind = FaultKind::kDropDecisions;
  a.start = 1.0;
  a.duration = 2.0;
  plan.add(a);
  FaultEvent b = a;
  b.start = 2.0;
  b.duration = 0.5;
  plan.add(b);
  FaultInjector inj(plan, 4, {});
  EXPECT_FALSE(inj.decisions_suppressed());
  inj.advance_to(1.5);
  EXPECT_TRUE(inj.decisions_suppressed());
  inj.advance_to(2.7);  // inner window closed, outer still open
  EXPECT_TRUE(inj.decisions_suppressed());
  inj.advance_to(3.5);
  EXPECT_FALSE(inj.decisions_suppressed());
}

TEST(FaultInjector, NextTransitionAfterWalksThePlan) {
  const FaultPlan plan = sample_plan();
  FaultInjector inj(plan, 16, {});
  EXPECT_DOUBLE_EQ(inj.next_transition_after(0.0), 0.5);
  inj.advance_to(0.5);
  EXPECT_DOUBLE_EQ(inj.next_transition_after(0.5), 1.0);
  inj.advance_to(10.0);
  EXPECT_TRUE(std::isinf(inj.next_transition_after(10.0)));
  EXPECT_TRUE(inj.done());
}

TEST(FaultInjector, RearrivalHookReceivesCount) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kRearrival;
  e.start = 1.0;
  e.count = 17;
  plan.add(e);
  std::int64_t seen = 0;
  fault::FaultHooks hooks;
  hooks.on_rearrival = [&](std::int64_t count) { seen = count; };
  FaultInjector inj(plan, 4, hooks);
  inj.advance_to(2.0);
  EXPECT_EQ(seen, 17);
}

TEST(FaultInjector, RejectsPlanReferencingPortsOutsideFabric) {
  const FaultPlan plan = sample_plan();  // max port 7
  EXPECT_THROW(FaultInjector(plan, 4, {}), ConfigError);
}

// ------------------------------------------------- candidate-cache mask

TEST(CandidateCacheMask, MaskedPortsDisappearFromTheView) {
  queueing::VoqMatrix voqs(4);
  queueing::FlowId next_id = 0;
  const auto add = [&](queueing::PortId src, queueing::PortId dst) {
    queueing::Flow f;
    f.id = next_id++;
    f.src = src;
    f.dst = dst;
    f.size = Bytes{100};
    f.remaining = f.size;
    voqs.add_flow(f);
  };
  add(0, 1);
  add(0, 2);
  add(2, 3);
  fabric::CandidateCache cache(voqs, 1.0);
  EXPECT_EQ(cache.refresh().size(), 3u);

  // Masking port 2 hides both the (0,2) egress and the (2,3) ingress.
  cache.set_port_usable(2, false);
  EXPECT_FALSE(cache.port_usable(2));
  const auto& masked = cache.refresh();
  ASSERT_EQ(masked.size(), 1u);
  EXPECT_EQ(masked.ingress()[0], 0);
  EXPECT_EQ(masked.egress()[0], 1);
  EXPECT_EQ(cache.candidates_masked(), 2u);

  // Recovery restores the full view without touching the matrix.
  cache.set_port_usable(2, true);
  EXPECT_EQ(cache.refresh().size(), 3u);
}

TEST(CandidateCacheMask, RecoveryIsARepackNotARecompute) {
  queueing::VoqMatrix voqs(4);
  queueing::Flow f;
  f.id = 0;
  f.src = 0;
  f.dst = 1;
  f.size = Bytes{100};
  f.remaining = f.size;
  voqs.add_flow(f);
  fabric::CandidateCache cache(voqs, 1.0);
  cache.refresh();
  const std::uint64_t recomputed = cache.voqs_recomputed();
  // Mask toggles repack the view; with an unchanged matrix no per-VOQ
  // entry is rebuilt.
  cache.set_port_usable(1, false);
  cache.refresh();
  cache.set_port_usable(1, true);
  cache.refresh();
  EXPECT_EQ(cache.voqs_recomputed(), recomputed);
}

TEST(CandidateCacheMask, RedundantMaskCallsDoNotInvalidate) {
  queueing::VoqMatrix voqs(2);
  fabric::CandidateCache cache(voqs, 1.0);
  cache.refresh();
  const std::uint64_t refreshes = cache.refreshes();
  cache.set_port_usable(0, true);  // already usable: no epoch bump
  cache.refresh();                 // short-circuits, still counts a refresh
  EXPECT_EQ(cache.refreshes(), refreshes + 1);
  EXPECT_EQ(cache.voqs_recomputed(), 0u);
}

// -------------------------------------------------------------- watchdog

TEST(Watchdog, EventCountStallOnFrozenSimTime) {
  fault::Watchdog wd;
  fault::WatchdogConfig config;
  config.stall_events = 1000;
  wd.configure(config);
  EXPECT_THROW(
      {
        for (std::uint64_t i = 0; i < 100'000; ++i) {
          wd.tick(1.0, i);  // sim time frozen at 1.0, events racing
        }
      },
      fault::StallError);
  EXPECT_EQ(wd.stalls_detected(), 1u);
}

TEST(Watchdog, WallClockStallUsesInjectedClock) {
  fault::Watchdog wd;
  fault::WatchdogConfig config;
  config.stall_wall_sec = 5.0;
  wd.configure(config);
  double fake_now = 0.0;
  wd.set_clock([&] { return fake_now; });
  std::uint64_t events = 0;
  // First checks establish the frozen instant; then the clock jumps.
  for (int i = 0; i < 1000; ++i) {
    wd.tick(2.0, events++);
  }
  fake_now = 60.0;
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000; ++i) {
          wd.tick(2.0, events++);
        }
      },
      fault::StallError);
}

TEST(Watchdog, NoFalsePositiveWhileSimTimeAdvances) {
  fault::Watchdog wd;
  fault::WatchdogConfig config;
  config.stall_events = 300;  // tighter than the tick count below
  config.stall_wall_sec = 1e-6;
  wd.configure(config);
  double fake_now = 0.0;
  wd.set_clock([&] { return fake_now; });
  // Slow but progressing: sim time creeps forward every event while the
  // wall clock races. Neither criterion may fire.
  EXPECT_NO_THROW({
    for (std::uint64_t i = 0; i < 100'000; ++i) {
      fake_now += 1.0;
      wd.tick(static_cast<double>(i) * 1e-9, i);
    }
  });
  EXPECT_EQ(wd.stalls_detected(), 0u);
  EXPECT_GT(wd.checks(), 0u);
}

TEST(Watchdog, StallErrorCarriesDiagnostics) {
  fault::Watchdog wd;
  fault::WatchdogConfig config;
  config.stall_events = 256;
  wd.configure(config);
  wd.set_diagnostics([] { return std::string("calendar depth 42"); });
  try {
    for (std::uint64_t i = 0; i < 100'000; ++i) {
      wd.tick(3.0, i);
    }
    FAIL() << "expected StallError";
  } catch (const fault::StallError& e) {
    EXPECT_NE(std::string(e.what()).find("calendar depth 42"),
              std::string::npos);
  }
}

TEST(Watchdog, StallErrorIsASimulationError) {
  fault::Watchdog wd;
  fault::WatchdogConfig config;
  config.stall_events = 256;
  wd.configure(config);
  EXPECT_THROW(
      {
        for (std::uint64_t i = 0; i < 100'000; ++i) {
          wd.tick(0.0, i);
        }
      },
      SimulationError);
}

TEST(Watchdog, DisabledWatchdogNeverChecks) {
  fault::Watchdog wd;  // default config: both criteria off
  EXPECT_FALSE(wd.active());
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    wd.tick(0.0, i);
  }
  EXPECT_EQ(wd.checks(), 0u);
}

TEST(Watchdog, HeartbeatAugmentCarriesStallCounters) {
  // The engine wires Watchdog counters into heartbeat beats via the
  // augment hook; verify the plumbing end to end with fake clocks.
  fault::Watchdog wd;
  fault::WatchdogConfig config;
  config.stall_events = std::numeric_limits<std::uint64_t>::max();
  wd.configure(config);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    wd.tick(1.0, i);  // frozen instant accumulates counters, no stall
  }
  ASSERT_GT(wd.checks(), 0u);
  ASSERT_GT(wd.frozen_events(), 0u);

  obs::Heartbeat hb;
  hb.set_augment([&](obs::HeartbeatStatus& status) {
    status.stall_checks = wd.checks();
    status.stall_frozen_events = wd.frozen_events();
    status.stall_frozen_wall_sec = wd.frozen_wall_sec();
  });
  obs::HeartbeatStatus seen;
  hb.configure(1e-12, [&](const obs::HeartbeatStatus& s) { seen = s; });
  for (std::uint64_t i = 0; i < 4 * obs::Heartbeat::kCheckEvery; ++i) {
    hb.tick(1.0, i);
  }
  ASSERT_GT(seen.beats, 0u);
  EXPECT_EQ(seen.stall_checks, wd.checks());
  EXPECT_EQ(seen.stall_frozen_events, wd.frozen_events());
}

// --------------------------------------------------- flowsim under fault

flowsim::FlowSimConfig fault_sim_config(double horizon_s) {
  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(horizon_s);
  config.sample_every = milliseconds(5.0);
  config.paranoid = true;
  return config;
}

FaultPlan stress_plan(double horizon_s) {
  FaultPlan plan;
  FaultEvent degrade;
  degrade.kind = FaultKind::kDegrade;
  degrade.start = 0.1 * horizon_s;
  degrade.duration = 0.4 * horizon_s;
  degrade.port = 0;
  degrade.factor = 0.3;
  plan.add(degrade);
  FaultEvent blackout;
  blackout.kind = FaultKind::kBlackout;
  blackout.start = 0.5 * horizon_s;
  blackout.duration = 0.15 * horizon_s;
  blackout.port = 1;
  plan.add(blackout);
  FaultEvent drop;
  drop.kind = FaultKind::kDropDecisions;
  drop.start = 0.3 * horizon_s;
  drop.duration = 0.1 * horizon_s;
  plan.add(drop);
  FaultEvent rearrive;
  rearrive.kind = FaultKind::kRearrival;
  rearrive.start = 0.75 * horizon_s;
  rearrive.count = 16;
  plan.add(rearrive);
  return plan;
}

TEST(FlowSimFaults, ConservationHoldsUnderFaults) {
  auto config = fault_sim_config(0.3);
  const FaultPlan plan = stress_plan(0.3);
  config.fault_plan = &plan;
  Rng rng(17);
  auto traffic = workload::paper_mix(
      0.8, 0.2, config.fabric.racks, config.fabric.hosts_per_rack,
      config.fabric.host_link, config.horizon, rng);
  sched::SrptScheduler srpt;
  const auto result = run_flow_sim(config, srpt, *traffic);

  // Rearrival rebirths must not double-count: every arrived flow either
  // completed or is still queued, and every offered byte is either
  // delivered or still in a VOQ.
  EXPECT_EQ(result.flows_completed + result.flows_left,
            result.flows_arrived);
  EXPECT_EQ(result.delivered.count + result.bytes_left.count,
            result.bytes_arrived.count);
  EXPECT_GT(result.fault_stats.transitions, 0);
  EXPECT_EQ(result.fault_stats.flows_requeued, 16);
}

TEST(FlowSimFaults, SameSeedAndPlanReproduceExactly) {
  const FaultPlan plan = stress_plan(0.25);
  const auto run = [&] {
    auto config = fault_sim_config(0.25);
    config.fault_plan = &plan;
    Rng rng(23);
    auto traffic = workload::paper_mix(
        0.8, 0.2, config.fabric.racks, config.fabric.hosts_per_rack,
        config.fabric.host_link, config.horizon, rng);
    sched::FastBasrptScheduler basrpt(50.0);
    return run_flow_sim(config, basrpt, *traffic);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.flows_arrived, b.flows_arrived);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.bytes_left, b.bytes_left);
  EXPECT_EQ(a.scheduler_invocations, b.scheduler_invocations);
  EXPECT_EQ(a.fault_stats.decisions_suppressed,
            b.fault_stats.decisions_suppressed);
  EXPECT_EQ(a.fault_stats.candidates_masked,
            b.fault_stats.candidates_masked);
}

TEST(FlowSimFaults, EmptyPlanIsPayForUse) {
  // An attached-but-empty plan must not perturb the run at all.
  const FaultPlan empty;
  const auto run = [&](const FaultPlan* plan) {
    auto config = fault_sim_config(0.2);
    config.fault_plan = plan;
    Rng rng(31);
    auto traffic = workload::paper_mix(
        0.7, 0.2, config.fabric.racks, config.fabric.hosts_per_rack,
        config.fabric.host_link, config.horizon, rng);
    sched::SrptScheduler srpt;
    return run_flow_sim(config, srpt, *traffic);
  };
  const auto with_null = run(nullptr);
  const auto with_empty = run(&empty);
  EXPECT_EQ(with_null.flows_completed, with_empty.flows_completed);
  EXPECT_EQ(with_null.delivered, with_empty.delivered);
  EXPECT_EQ(with_null.scheduler_invocations,
            with_empty.scheduler_invocations);
  EXPECT_EQ(with_empty.fault_stats.transitions, 0);
}

TEST(FlowSimFaults, DegradedRunDeliversLessThanHealthyRun) {
  const FaultPlan plan = stress_plan(0.3);
  const auto run = [&](const FaultPlan* p) {
    auto config = fault_sim_config(0.3);
    config.fault_plan = p;
    Rng rng(41);
    auto traffic = workload::paper_mix(
        0.9, 0.2, config.fabric.racks, config.fabric.hosts_per_rack,
        config.fabric.host_link, config.horizon, rng);
    sched::SrptScheduler srpt;
    return run_flow_sim(config, srpt, *traffic);
  };
  const auto healthy = run(nullptr);
  const auto degraded = run(&plan);
  // Same offered workload, strictly less capacity: the degraded run
  // cannot deliver more.
  EXPECT_EQ(healthy.bytes_arrived, degraded.bytes_arrived);
  EXPECT_LT(degraded.delivered.count, healthy.delivered.count);
}

}  // namespace
}  // namespace basrpt
