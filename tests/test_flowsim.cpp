// Unit tests for src/flowsim: event mechanics, exact FCTs on hand-built
// scenarios, preemption, conservation, sampling.
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "flowsim/flow_sim.hpp"
#include "flowsim/online.hpp"
#include "obs/metrics.hpp"
#include "perf/profiler.hpp"
#include "sched/fast_basrpt.hpp"
#include "sched/srpt.hpp"
#include "workload/generators.hpp"
#include "workload/traffic.hpp"

namespace basrpt::flowsim {
namespace {

workload::FlowArrival make_arrival(double t, PortId src, PortId dst,
                                   Bytes size,
                                   stats::FlowClass cls =
                                       stats::FlowClass::kBackground) {
  workload::FlowArrival a;
  a.time = SimTime{t};
  a.src = src;
  a.dst = dst;
  a.size = size;
  a.cls = cls;
  return a;
}

FlowSimConfig tiny_config(double horizon_s = 1.0) {
  FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(horizon_s);
  config.sample_every = milliseconds(1.0);
  config.paranoid = true;
  return config;
}

TEST(FlowSim, SingleFlowFinishesAtLineRate) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 1, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  // 125 MB at 10 Gbps = 0.1 s.
  ASSERT_EQ(result.flows_completed, 1);
  const auto b = result.fct.summary(stats::FlowClass::kBackground);
  EXPECT_NEAR(b.mean_seconds, 0.1, 1e-6);
  EXPECT_EQ(result.delivered, 125_MB);
  EXPECT_EQ(result.flows_left, 0);
}

TEST(FlowSim, CrossRackFlowAlsoGetsLineRate) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 5, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  ASSERT_EQ(result.flows_completed, 1);
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kBackground).mean_seconds,
              0.1, 1e-6);
}

TEST(FlowSim, SrptSerializesSharedIngressShortestFirst) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  // Both from host 0: 25 MB and 125 MB. SRPT: small first (20 ms),
  // large waits then takes 100 ms more.
  workload::VectorTraffic traffic({
      make_arrival(0.0, 0, 1, 25_MB, stats::FlowClass::kQuery),
      make_arrival(0.0, 0, 2, 125_MB, stats::FlowClass::kBackground),
  });
  const auto result = run_flow_sim(config, srpt, traffic);
  ASSERT_EQ(result.flows_completed, 2);
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kQuery).mean_seconds,
              0.02, 1e-5);
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kBackground).mean_seconds,
              0.12, 1e-5);
}

TEST(FlowSim, ArrivingShortFlowPreemptsLongOne) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  // Long flow starts at t=0; at t=0.01 a short flow on the same ingress
  // arrives and must preempt immediately (decision update on arrival).
  workload::VectorTraffic traffic({
      make_arrival(0.0, 0, 1, 125_MB, stats::FlowClass::kBackground),
      make_arrival(0.01, 0, 2, 12500_KB, stats::FlowClass::kQuery),
  });
  const auto result = run_flow_sim(config, srpt, traffic);
  ASSERT_EQ(result.flows_completed, 2);
  // Short: 12.5 MB = 10 ms of line rate, served 0.01→0.02.
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kQuery).mean_seconds,
              0.01, 1e-5);
  // Long: 125 MB needs 100 ms of service, paused for 10 ms → 110 ms.
  EXPECT_NEAR(result.fct.summary(stats::FlowClass::kBackground).mean_seconds,
              0.11, 1e-5);
}

TEST(FlowSim, DisjointFlowsRunConcurrently) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({
      make_arrival(0.0, 0, 1, 125_MB),
      make_arrival(0.0, 2, 3, 125_MB),
  });
  const auto result = run_flow_sim(config, srpt, traffic);
  ASSERT_EQ(result.flows_completed, 2);
  const auto b = result.fct.summary(stats::FlowClass::kBackground);
  EXPECT_NEAR(b.max_seconds, 0.1, 1e-6);  // no serialization
}

TEST(FlowSim, ByteConservation) {
  auto config = tiny_config(0.2);
  sched::FastBasrptScheduler basrpt(2500.0);
  Rng rng(1);
  auto traffic = workload::paper_mix(0.8, 0.2, 2, 4, gbps(10.0),
                                     seconds(0.2), rng);
  const auto result = run_flow_sim(config, basrpt, *traffic);
  EXPECT_GT(result.flows_arrived, 50);
  // Every offered byte is either delivered or still queued, and a
  // completed flow's bytes are exactly its size.
  EXPECT_EQ(result.delivered + result.bytes_left, result.bytes_arrived);
  EXPECT_GE(result.delivered, result.fct.bytes_completed());
  EXPECT_EQ(result.flows_arrived,
            result.flows_completed + result.flows_left);
}

TEST(FlowSim, ThroughputMatchesDeliveredBytes) {
  auto config = tiny_config(0.5);
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 1, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  // 1 Gbit over 0.5 s horizon = 2 Gbps average.
  EXPECT_NEAR(result.throughput().bits_per_sec, 2e9, 1e6);
}

TEST(FlowSim, UnfinishedFlowLeftAtHorizon) {
  auto config = tiny_config(0.05);
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 1, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  EXPECT_EQ(result.flows_completed, 0);
  EXPECT_EQ(result.flows_left, 1);
  // Half the flow drained in half its service time.
  EXPECT_NEAR(static_cast<double>(result.bytes_left.count), 62.5e6, 1e4);
  EXPECT_NEAR(static_cast<double>(result.delivered.count), 62.5e6, 1e4);
}

TEST(FlowSim, BacklogTraceSampledOverHorizon) {
  auto config = tiny_config(0.1);
  config.watched_src = 0;
  config.watched_dst = 1;
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({make_arrival(0.0, 0, 1, 125_MB)});
  const auto result = run_flow_sim(config, srpt, traffic);
  // ~100 samples at 1 ms over 0.1 s.
  EXPECT_GE(result.backlog.watched_voq().size(), 90u);
  // The watched VOQ drains linearly: first sample is the biggest.
  EXPECT_NEAR(result.backlog.watched_voq().points().front().value, 125e6,
              2e6);
  EXPECT_LT(result.backlog.watched_voq().last_value(), 15e6);
}

TEST(FlowSim, SchedulerInvokedOnEveryArrivalAndCompletion) {
  auto config = tiny_config();
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({
      make_arrival(0.0, 0, 1, 1_MB),
      make_arrival(0.1, 2, 3, 1_MB),
  });
  const auto result = run_flow_sim(config, srpt, traffic);
  // 2 arrivals + 2 completions.
  EXPECT_EQ(result.scheduler_invocations, 4u);
}

TEST(FlowSim, ZeroHorizonRejected) {
  FlowSimConfig config = tiny_config();
  config.horizon = seconds(0.0);
  sched::SrptScheduler srpt;
  workload::VectorTraffic traffic({});
  EXPECT_THROW(run_flow_sim(config, srpt, traffic), ConfigError);
}

TEST(FlowSim, EcmpModeRunsAndConserves) {
  auto config = tiny_config(0.2);
  config.fabric.routing = topo::RoutingMode::kEcmpHash;
  sched::SrptScheduler srpt;
  Rng rng(2);
  auto traffic = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0),
                                     seconds(0.2), rng);
  const auto result = run_flow_sim(config, srpt, *traffic);
  EXPECT_EQ(result.flows_arrived,
            result.flows_completed + result.flows_left);
  EXPECT_GT(result.flows_completed, 0);
}

TEST(FlowSim, ParanoidRateDifferentialChangesNoResult) {
  // --paranoid re-solves every certified rate set with route +
  // progressive filling and throws on a bitwise difference; it must
  // pass on spray (certified) and ECMP / fair sharing (mostly fallback)
  // and leave every result unchanged.
  for (const auto routing :
       {topo::RoutingMode::kFluidSpray, topo::RoutingMode::kEcmpHash}) {
    for (const auto model :
         {ServiceModel::kMatchingScheduler, ServiceModel::kFairSharing}) {
      const auto run = [&](bool paranoid) {
        auto config = tiny_config(0.1);
        config.fabric.routing = routing;
        config.service_model = model;
        config.paranoid = paranoid;
        sched::FastBasrptScheduler basrpt(2500.0);
        Rng rng(3);
        auto traffic = workload::paper_mix(0.8, 0.2, 2, 4, gbps(10.0),
                                           seconds(0.1), rng);
        return run_flow_sim(config, basrpt, *traffic);
      };
      const FlowSimResult plain = run(false);
      const FlowSimResult checked = run(true);
      EXPECT_GT(plain.flows_completed, 0);
      EXPECT_EQ(checked.flows_completed, plain.flows_completed);
      EXPECT_EQ(checked.delivered, plain.delivered);
      EXPECT_EQ(checked.scheduler_invocations, plain.scheduler_invocations);
      EXPECT_EQ(
          checked.fct.summary(stats::FlowClass::kBackground).mean_seconds,
          plain.fct.summary(stats::FlowClass::kBackground).mean_seconds);
    }
  }
}

TEST(FlowSimResult, ZeroHorizonThroughputIsZeroNotNan) {
  FlowSimResult result(0, 1);
  result.delivered = Bytes{1000};
  EXPECT_DOUBLE_EQ(result.throughput().bits_per_sec, 0.0);
}

TEST(OnlineFlowSim, AdvanceToAllocatesNothingWithObsOff) {
  // basrptd calls advance_to once per feed record; with obs off a step
  // that runs no event must not touch the allocator.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  sched::SrptScheduler srpt;
  OnlineFlowSim sim(tiny_config(), srpt);
  sim.offer(make_arrival(0.0, 0, 1, 125_MB));
  sim.advance_to(SimTime{0.001});
  ASSERT_EQ(sim.active_flows(), 1u);

  constexpr int kCalls = 100;
  const bool was_counting = perf::alloc_counting();
  perf::set_alloc_counting(true);
  const std::uint64_t before = perf::alloc_total();
  for (int k = 1; k <= kCalls; ++k) {
    sim.advance_to(SimTime{0.001 + 1e-5 * k});
  }
  const std::uint64_t allocs = perf::alloc_total() - before;
  perf::set_alloc_counting(was_counting);
  obs::set_enabled(was_enabled);
  EXPECT_EQ(sim.active_flows(), 1u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace basrpt::flowsim
