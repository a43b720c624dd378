// Tests for the extension features: load governor, trace I/O,
// distributed BASRPT, size-estimation noise, reschedule batching, and
// the exact 2x2 DTMC solver.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "dist/flow_sizes.hpp"
#include "flowsim/flow_sim.hpp"
#include "queueing/dtmc.hpp"
#include "sched/distributed_basrpt.hpp"
#include "sched/factory.hpp"
#include "sched/fast_basrpt.hpp"
#include "sched/noisy.hpp"
#include "sched/srpt.hpp"
#include "switchsim/arrivals.hpp"
#include "switchsim/slotted_sim.hpp"
#include "workload/generators.hpp"
#include "workload/governor.hpp"
#include "workload/trace_io.hpp"

namespace basrpt {
namespace {

using queueing::Flow;
using queueing::FlowId;
using queueing::VoqMatrix;
using sched::PortId;

Flow make_flow(FlowId id, PortId src, PortId dst, std::int64_t packets) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = Bytes{packets};
  f.remaining = f.size;
  return f;
}

/// Decides on an AoS candidate list by repacking it into lanes.
sched::Decision decide_aos(sched::Scheduler& scheduler, PortId n_ports,
                           const std::vector<sched::VoqCandidate>& candidates) {
  sched::CandidateSoA storage;
  return scheduler.decide(
      n_ports, sched::CandidateView::from_aos(candidates, storage));
}

// ----------------------------------------------------------- LoadGovernor

TEST(LoadGovernor, AdmitsWithinBudgetRejectsBeyond) {
  workload::LoadGovernor governor(4, gbps(10.0), 0.9, 10_KB);
  // At t=0 only the slack is available.
  EXPECT_TRUE(governor.would_admit(0, 1, 8_KB, SimTime{0.0}));
  governor.commit(0, 1, 8_KB);
  EXPECT_FALSE(governor.would_admit(0, 2, 8_KB, SimTime{0.0}));
  // Another ingress still has its own budget.
  EXPECT_TRUE(governor.would_admit(2, 3, 8_KB, SimTime{0.0}));
  // Later, the budget has grown: 0.9 * 1.25 GB/s * 1 s >> 8 KB.
  EXPECT_TRUE(governor.would_admit(0, 2, 8_KB, SimTime{1.0}));
}

TEST(LoadGovernor, EgressBudgetIsIndependent) {
  workload::LoadGovernor governor(4, gbps(10.0), 0.9, 10_KB);
  governor.commit(0, 1, 8_KB);
  // Ingress 2 is fresh but egress 1 is nearly exhausted.
  EXPECT_FALSE(governor.would_admit(2, 1, 8_KB, SimTime{0.0}));
  EXPECT_EQ(governor.offered_ingress(0), 8_KB);
  EXPECT_EQ(governor.offered_egress(1), 8_KB);
}

TEST(LoadGovernor, GovernedMixKeepsEveryPortUnderCap) {
  Rng rng(1);
  const double load = 0.95;
  auto source = workload::paper_mix(load, 0.1, 2, 4, gbps(10.0),
                                    seconds(2.0), rng);
  std::vector<double> ingress_bytes(8, 0.0);
  std::vector<double> egress_bytes(8, 0.0);
  double last = 0.0;
  while (auto a = source->next()) {
    ingress_bytes[static_cast<std::size_t>(a->src)] +=
        static_cast<double>(a->size.count);
    egress_bytes[static_cast<std::size_t>(a->dst)] +=
        static_cast<double>(a->size.count);
    last = a->time.seconds;
  }
  ASSERT_GT(last, 1.0);
  const double cap_bps = (load + 0.03) * 1e10;
  const double slack = 60e6 * 8.0;
  for (int p = 0; p < 8; ++p) {
    EXPECT_LE(ingress_bytes[static_cast<std::size_t>(p)] * 8.0,
              cap_bps * last + slack)
        << "ingress " << p;
    EXPECT_LE(egress_bytes[static_cast<std::size_t>(p)] * 8.0,
              cap_bps * last + slack)
        << "egress " << p;
  }
}

TEST(LoadGovernor, RejectsBadParameters) {
  EXPECT_THROW(workload::LoadGovernor(0, gbps(10.0), 0.9), ConfigError);
  EXPECT_THROW(workload::LoadGovernor(4, gbps(10.0), 0.0), ConfigError);
  EXPECT_THROW(workload::LoadGovernor(4, gbps(10.0), 1.5), ConfigError);
}

// --------------------------------------------------------------- trace IO

std::vector<workload::FlowArrival> sample_trace() {
  std::vector<workload::FlowArrival> arrivals(3);
  arrivals[0].time = SimTime{0.001};
  arrivals[0].src = 3;
  arrivals[0].dst = 7;
  arrivals[0].size = 20_KB;
  arrivals[0].cls = stats::FlowClass::kQuery;
  arrivals[1].time = SimTime{0.002};
  arrivals[1].src = 1;
  arrivals[1].dst = 2;
  arrivals[1].size = 5_MB;
  arrivals[1].cls = stats::FlowClass::kBackground;
  arrivals[2].time = SimTime{0.002};
  arrivals[2].src = 0;
  arrivals[2].dst = 4;
  arrivals[2].size = 1_KB;
  arrivals[2].cls = stats::FlowClass::kQuery;
  return arrivals;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const auto original = sample_trace();
  std::stringstream buffer;
  workload::write_trace(buffer, original);
  const auto restored = workload::read_trace(buffer);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(restored[i].time.seconds, original[i].time.seconds, 1e-9);
    EXPECT_EQ(restored[i].src, original[i].src);
    EXPECT_EQ(restored[i].dst, original[i].dst);
    EXPECT_EQ(restored[i].size, original[i].size);
    EXPECT_EQ(restored[i].cls, original[i].cls);
  }
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/basrpt_trace_test.csv";
  workload::write_trace_file(path, sample_trace());
  const auto restored = workload::read_trace_file(path);
  EXPECT_EQ(restored.size(), 3u);
}

TEST(TraceIo, RejectsMalformedInput) {
  {
    std::stringstream bad("not-a-trace\n");
    EXPECT_THROW(workload::read_trace(bad), ConfigError);
  }
  {
    std::stringstream bad("basrpt-trace-v1\n1.0,2,3\n");
    EXPECT_THROW(workload::read_trace(bad), ConfigError);
  }
  {
    std::stringstream bad("basrpt-trace-v1\n1.0,2,3,100,x\n");
    EXPECT_THROW(workload::read_trace(bad), ConfigError);
  }
  {
    // Times going backwards.
    std::stringstream bad(
        "basrpt-trace-v1\n2.0,0,1,100,q\n1.0,0,1,100,q\n");
    EXPECT_THROW(workload::read_trace(bad), ConfigError);
  }
}

TEST(TraceIo, TruncatedFileRejected) {
  // The writer terminates every row; a missing final newline means the
  // file was cut off mid-write and must not be replayed silently.
  std::stringstream bad("basrpt-trace-v1\n1.0,0,1,100,q\n2.0,0,1,100");
  EXPECT_THROW(workload::read_trace(bad), ConfigError);
  // Header-only truncation is caught too.
  std::stringstream bad_header("basrpt-trace-v1");
  EXPECT_THROW(workload::read_trace(bad_header), ConfigError);
}

TEST(TraceIo, OverflowingNumbersRejected) {
  // stod/stoll throw std::out_of_range (not logic_error) on these; the
  // reader must translate that into a ParseError, not crash.
  std::stringstream bad_time("basrpt-trace-v1\n1e999,0,1,100,q\n");
  EXPECT_THROW(workload::read_trace(bad_time), ConfigError);
  std::stringstream bad_size(
      "basrpt-trace-v1\n1.0,0,1,99999999999999999999,q\n");
  EXPECT_THROW(workload::read_trace(bad_size), ConfigError);
}

TEST(TraceIo, TrailingGarbageInNumbersRejected) {
  // Partial conversions ("1.5x" parses as 1.5 under plain stod) must
  // not be accepted.
  std::stringstream bad_time("basrpt-trace-v1\n1.5x,0,1,100,q\n");
  EXPECT_THROW(workload::read_trace(bad_time), ConfigError);
  std::stringstream bad_port("basrpt-trace-v1\n1.0,0y,1,100,q\n");
  EXPECT_THROW(workload::read_trace(bad_port), ConfigError);
}

TEST(TraceIo, WrongFieldCountRejected) {
  std::stringstream four("basrpt-trace-v1\n1.0,0,1,100\n");
  EXPECT_THROW(workload::read_trace(four), ConfigError);
  std::stringstream six("basrpt-trace-v1\n1.0,0,1,100,q,extra\n");
  EXPECT_THROW(workload::read_trace(six), ConfigError);
  // A trailing comma is a real (empty) sixth field, not whitespace.
  std::stringstream trailing("basrpt-trace-v1\n1.0,0,1,100,q,\n");
  EXPECT_THROW(workload::read_trace(trailing), ConfigError);
}

TEST(TraceIo, NegativePortsAndSizesRejected) {
  std::stringstream bad_port("basrpt-trace-v1\n1.0,-1,1,100,q\n");
  EXPECT_THROW(workload::read_trace(bad_port), ConfigError);
  std::stringstream bad_size("basrpt-trace-v1\n1.0,0,1,-100,q\n");
  EXPECT_THROW(workload::read_trace(bad_size), ConfigError);
}

TEST(TraceIo, CrlfLineEndingsAccepted) {
  std::stringstream in("basrpt-trace-v1\r\n0.5,1,2,777,b\r\n");
  const auto trace = workload::read_trace(in);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].size.count, 777);
}

TEST(TraceIo, ParseErrorCarriesLineNumber) {
  // Line 3 is the bad row (header is line 1).
  std::stringstream bad(
      "basrpt-trace-v1\n1.0,0,1,100,q\n2.0,0,1,100,z\n");
  try {
    workload::read_trace(bad);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "basrpt-trace-v1\n# comment\n\n0.5,1,2,777,b\n");
  const auto trace = workload::read_trace(in);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].size.count, 777);
}

TEST(TraceIo, RecorderTeesArrivals) {
  auto inner =
      std::make_unique<workload::VectorTraffic>(sample_trace());
  workload::RecordingTraffic recorder(std::move(inner));
  std::size_t pulled = 0;
  while (recorder.next()) {
    ++pulled;
  }
  EXPECT_EQ(pulled, 3u);
  EXPECT_EQ(recorder.recorded().size(), 3u);
  // Replay the recording through the simulator path.
  std::stringstream buffer;
  workload::write_trace(buffer, recorder.recorded());
  EXPECT_EQ(workload::read_trace(buffer).size(), 3u);
}

TEST(TraceIo, ReplayReproducesSimulationExactly) {
  // Record a random workload, then run the simulator on the live source
  // and on the recorded trace: results must match bit-for-bit.
  const topo::FabricConfig fabric = topo::small_fabric(2, 4, 2);
  Rng rng(21);
  workload::RecordingTraffic recorder(workload::paper_mix(
      0.7, 0.2, fabric.racks, fabric.hosts_per_rack, fabric.host_link,
      seconds(0.15), rng));

  flowsim::FlowSimConfig config;
  config.fabric = fabric;
  config.horizon = seconds(0.15);
  sched::SrptScheduler srpt;
  const auto live = run_flow_sim(config, srpt, recorder);

  workload::VectorTraffic replay(recorder.recorded());
  const auto replayed = run_flow_sim(config, srpt, replay);

  EXPECT_EQ(live.flows_arrived, replayed.flows_arrived);
  EXPECT_EQ(live.flows_completed, replayed.flows_completed);
  EXPECT_EQ(live.delivered, replayed.delivered);
  EXPECT_DOUBLE_EQ(
      live.fct.summary(stats::FlowClass::kQuery).mean_seconds,
      replayed.fct.summary(stats::FlowClass::kQuery).mean_seconds);
}

TEST(TraceIo, FileRoundTripPreservesSimulation) {
  const topo::FabricConfig fabric = topo::small_fabric(2, 4, 2);
  Rng rng(22);
  workload::RecordingTraffic recorder(workload::paper_mix(
      0.6, 0.2, fabric.racks, fabric.hosts_per_rack, fabric.host_link,
      seconds(0.1), rng));
  while (recorder.next()) {
  }
  const std::string path = ::testing::TempDir() + "/basrpt_replay.trace";
  workload::write_trace_file(path, recorder.recorded());

  flowsim::FlowSimConfig config;
  config.fabric = fabric;
  config.horizon = seconds(0.1);
  sched::SrptScheduler srpt;
  workload::VectorTraffic from_memory(recorder.recorded());
  const auto a = run_flow_sim(config, srpt, from_memory);
  workload::VectorTraffic from_file(workload::read_trace_file(path));
  const auto b = run_flow_sim(config, srpt, from_file);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.delivered, b.delivered);
}

// ---------------------------------------------------- distributed BASRPT

TEST(DistributedBasrpt, ProducesValidMatchings) {
  Rng rng(2);
  sched::DistributedBasrptScheduler sched(100.0, 3);
  for (int trial = 0; trial < 20; ++trial) {
    VoqMatrix voqs(6);
    for (FlowId id = 0; id < 24; ++id) {
      const auto src = static_cast<PortId>(rng.uniform_int(0, 5));
      auto dst = static_cast<PortId>(rng.uniform_int(0, 4));
      if (dst >= src) {
        ++dst;
      }
      voqs.add_flow(make_flow(id + trial * 100, src, dst,
                              rng.uniform_int(1, 100)));
    }
    const auto decision =
        decide_aos(sched, 6, sched::build_candidates(voqs, 1.0));
    EXPECT_TRUE(sched::decision_is_matching(decision, voqs));
    EXPECT_GE(decision.selected.size(), 1u);
  }
}

TEST(DistributedBasrpt, EnoughRoundsYieldMaximalMatching) {
  // With rounds >= ports, every unmatched ingress with a free egress got
  // to request it, so the result is maximal over the candidate support
  // (the selections may differ from centralized greedy — both are
  // maximal matchings, which need not coincide).
  Rng rng(3);
  sched::DistributedBasrptScheduler dist(100.0, 16);
  for (int trial = 0; trial < 20; ++trial) {
    VoqMatrix voqs(5);
    for (FlowId id = 0; id < 15; ++id) {
      const auto src = static_cast<PortId>(rng.uniform_int(0, 4));
      auto dst = static_cast<PortId>(rng.uniform_int(0, 3));
      if (dst >= src) {
        ++dst;
      }
      voqs.add_flow(make_flow(id + trial * 100, src, dst,
                              rng.uniform_int(1, 100)));
    }
    const auto candidates = sched::build_candidates(voqs, 1.0);
    const auto decision = decide_aos(dist, 5, candidates);
    EXPECT_TRUE(sched::decision_is_matching(decision, voqs));
    std::set<PortId> in_used;
    std::set<PortId> out_used;
    for (const FlowId id : decision.selected) {
      in_used.insert(voqs.flow(id).src);
      out_used.insert(voqs.flow(id).dst);
    }
    for (const auto& c : candidates) {
      EXPECT_TRUE(in_used.count(c.ingress) || out_used.count(c.egress))
          << "candidate VOQ (" << c.ingress << "," << c.egress
          << ") was addable — not maximal";
    }
  }
}

TEST(DistributedBasrpt, OneRoundPicksGloballyBestPerEgress) {
  VoqMatrix voqs(3);
  voqs.add_flow(make_flow(1, 0, 2, 10));  // key smaller (shorter)
  voqs.add_flow(make_flow(2, 1, 2, 50));  // same egress, worse key
  sched::DistributedBasrptScheduler sched(30.0, 1);
  const auto decision =
      decide_aos(sched, 3, sched::build_candidates(voqs, 1.0));
  ASSERT_EQ(decision.selected.size(), 1u);
  EXPECT_EQ(decision.selected[0], 1);
}

TEST(DistributedBasrpt, MoreRoundsNeverSelectFewer) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    VoqMatrix voqs(6);
    for (FlowId id = 0; id < 20; ++id) {
      const auto src = static_cast<PortId>(rng.uniform_int(0, 5));
      auto dst = static_cast<PortId>(rng.uniform_int(0, 4));
      if (dst >= src) {
        ++dst;
      }
      voqs.add_flow(make_flow(id + trial * 100, src, dst,
                              rng.uniform_int(1, 100)));
    }
    const auto candidates = sched::build_candidates(voqs, 1.0);
    std::size_t last = 0;
    for (int rounds = 1; rounds <= 6; ++rounds) {
      sched::DistributedBasrptScheduler sched(100.0, rounds);
      const auto size = decide_aos(sched, 6, candidates).selected.size();
      EXPECT_GE(size, last);
      last = size;
    }
  }
}

TEST(DistributedBasrpt, FactoryIntegration) {
  const auto spec = sched::SchedulerSpec::dist_basrpt(500.0, 2);
  EXPECT_EQ(sched::make_scheduler(spec)->name(), "dist-basrpt(V=500 r=2)");
  EXPECT_EQ(sched::parse_policy("dist-basrpt"),
            sched::Policy::kDistBasrpt);
}

// ------------------------------------------------------------ noisy sizes

TEST(NoisySizes, ExactErrorIsPassThrough) {
  VoqMatrix voqs(3);
  voqs.add_flow(make_flow(1, 0, 1, 10));
  voqs.add_flow(make_flow(2, 1, 2, 5));
  const auto candidates = sched::build_candidates(voqs, 1.0);
  sched::SrptScheduler plain;
  sched::NoisySizeScheduler noisy(
      std::make_unique<sched::SrptScheduler>(), 1.0, 99);
  EXPECT_EQ(decide_aos(noisy, 3, candidates).selected,
            decide_aos(plain, 3, candidates).selected);
}

TEST(NoisySizes, LargeErrorCanReorderSrpt) {
  // Two flows with close sizes on conflicting ports: with a 10x error
  // some seeds must flip the order.
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 100));
  voqs.add_flow(make_flow(2, 1, 1, 110));
  const auto candidates = sched::build_candidates(voqs, 1.0);
  bool flipped = false;
  for (std::uint64_t seed = 0; seed < 32 && !flipped; ++seed) {
    sched::NoisySizeScheduler noisy(
        std::make_unique<sched::SrptScheduler>(), 10.0, seed);
    const auto decision = decide_aos(noisy, 2, candidates);
    ASSERT_EQ(decision.selected.size(), 1u);
    flipped = decision.selected[0] == 2;
  }
  EXPECT_TRUE(flipped);
}

TEST(NoisySizes, PerFlowFactorIsStableAcrossDecisions) {
  VoqMatrix voqs(2);
  voqs.add_flow(make_flow(1, 0, 1, 100));
  voqs.add_flow(make_flow(2, 1, 1, 110));
  const auto candidates = sched::build_candidates(voqs, 1.0);
  sched::NoisySizeScheduler noisy(
      std::make_unique<sched::SrptScheduler>(), 10.0, 7);
  const auto first = decide_aos(noisy, 2, candidates).selected;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(decide_aos(noisy, 2, candidates).selected, first);
  }
}

TEST(NoisySizes, FactorySpecWrapsScheduler) {
  const auto spec =
      sched::SchedulerSpec::fast_basrpt(2500.0).with_size_error(4.0);
  const auto name = sched::make_scheduler(spec)->name();
  EXPECT_NE(name.find("noisy(x4)"), std::string::npos);
  EXPECT_NE(name.find("fast-basrpt"), std::string::npos);
}

TEST(NoisySizes, RejectsErrorBelowOne) {
  EXPECT_THROW(sched::NoisySizeScheduler(
                   std::make_unique<sched::SrptScheduler>(), 0.5, 1),
               ConfigError);
}

// ----------------------------------------------------- reschedule batching

TEST(RescheduleBatching, ReducesSchedulerInvocations) {
  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(0.3);
  Rng rng(5);

  sched::SrptScheduler srpt;
  auto t1 = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0), seconds(0.3),
                                rng);
  const auto immediate = run_flow_sim(config, srpt, *t1);

  config.min_reschedule_gap = microseconds(200.0);
  auto t2 = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0), seconds(0.3),
                                rng);
  const auto batched = run_flow_sim(config, srpt, *t2);

  EXPECT_LT(batched.scheduler_invocations,
            immediate.scheduler_invocations);
  // Work conservation: everything still flows; completions unchanged in
  // count (same arrivals, same horizon, similar service).
  EXPECT_EQ(batched.flows_arrived, immediate.flows_arrived);
  EXPECT_GT(batched.flows_completed, immediate.flows_completed * 9 / 10);
}

TEST(RescheduleBatching, QueryFctDegradesGracefully) {
  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(0.3);
  Rng rng(6);

  sched::SrptScheduler srpt;
  auto t1 = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0), seconds(0.3),
                                rng);
  const auto immediate = run_flow_sim(config, srpt, *t1);
  config.min_reschedule_gap = microseconds(100.0);
  auto t2 = workload::paper_mix(0.7, 0.2, 2, 4, gbps(10.0), seconds(0.3),
                                rng);
  const auto batched = run_flow_sim(config, srpt, *t2);

  const auto q_now = immediate.fct.summary(stats::FlowClass::kQuery);
  const auto q_batched = batched.fct.summary(stats::FlowClass::kQuery);
  ASSERT_GT(q_now.completed, 100);
  // Deferral can add at most ~the gap to a query's service start; the
  // mean must stay within gap + slack of the immediate scheduler's.
  EXPECT_GE(q_batched.mean_seconds, q_now.mean_seconds * 0.9);
  EXPECT_LE(q_batched.mean_seconds, q_now.mean_seconds + 250e-6);
}

// ------------------------------------------------------------------- DTMC

TEST(Dtmc, EmptyArrivalsConcentrateAtZero) {
  queueing::Dtmc2x2Config config;
  config.arrival_prob = {{{0.0, 0.0}, {0.0, 0.0}}};
  config.cap = 4;
  const auto result = queueing::solve_2x2_chain(config);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.mean_total_queue, 0.0, 1e-9);
}

TEST(Dtmc, SymmetricLoadGivesSymmetricQueues) {
  queueing::Dtmc2x2Config config;
  config.arrival_prob = {{{0.35, 0.35}, {0.35, 0.35}}};
  config.cap = 12;
  const auto result = queueing::solve_2x2_chain(config);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.mean_total_queue, 0.5);
  EXPECT_NEAR(result.mean_queue[0][0], result.mean_queue[1][1], 1e-6);
  EXPECT_NEAR(result.mean_queue[0][1], result.mean_queue[1][0], 1e-6);
  EXPECT_LT(result.mass_at_cap, 1e-3);
}

TEST(Dtmc, HigherLoadMeansLongerQueues) {
  queueing::Dtmc2x2Config low;
  low.arrival_prob = {{{0.2, 0.2}, {0.2, 0.2}}};
  low.cap = 12;
  queueing::Dtmc2x2Config high = low;
  high.arrival_prob = {{{0.4, 0.4}, {0.4, 0.4}}};
  EXPECT_LT(queueing::solve_2x2_chain(low).mean_total_queue,
            queueing::solve_2x2_chain(high).mean_total_queue);
}

TEST(Dtmc, MaxWeightBeatsFixedPriorityOnAsymmetricLoad) {
  queueing::Dtmc2x2Config config;
  // The M2 pairs carry most of the load; fixed priority (always M1
  // when possible) wastes slots on them.
  config.arrival_prob = {{{0.1, 0.45}, {0.45, 0.1}}};
  config.cap = 14;
  config.policy = queueing::SlotPolicy::kMaxWeight;
  const auto maxweight = queueing::solve_2x2_chain(config);
  config.policy = queueing::SlotPolicy::kFixedPriority;
  const auto fixed = queueing::solve_2x2_chain(config);
  EXPECT_LT(maxweight.mean_total_queue, fixed.mean_total_queue);
}

TEST(Dtmc, MatchesSlottedSimulatorOnMaxWeight) {
  // The headline cross-check: analytic chain vs the simulator, unit
  // packets, MaxWeight, symmetric load 0.7 per port.
  queueing::Dtmc2x2Config config;
  config.arrival_prob = {{{0.35, 0.35}, {0.35, 0.35}}};
  config.cap = 16;
  const auto analytic = queueing::solve_2x2_chain(config);
  ASSERT_TRUE(analytic.converged);

  std::vector<std::vector<double>> rates = {{0.35, 0.35}, {0.35, 0.35}};
  switchsim::SizeMix unit;
  unit.small = 1;
  unit.large = 1;
  unit.p_small = 1.0;
  switchsim::SlottedConfig sim_config;
  sim_config.n_ports = 2;
  sim_config.horizon = 300'000;
  sim_config.watched_dst = 1;
  auto scheduler = sched::make_scheduler(sched::SchedulerSpec::maxweight());
  const auto sim = switchsim::run_slotted(
      sim_config, *scheduler,
      switchsim::bernoulli_arrivals(rates, unit, 300'000, Rng(7)));

  EXPECT_NEAR(sim.backlog_packets.mean() / analytic.mean_total_queue, 1.0,
              0.15);
}

TEST(Dtmc, RejectsBadConfig) {
  queueing::Dtmc2x2Config config;
  config.cap = 0;
  EXPECT_THROW(queueing::solve_2x2_chain(config), ConfigError);
  config.cap = 4;
  config.arrival_prob[0][0] = 1.5;
  EXPECT_THROW(queueing::solve_2x2_chain(config), ConfigError);
}

}  // namespace
}  // namespace basrpt
