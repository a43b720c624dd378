// Parallel sweep runner (src/exec) and the SchedulerSpec text format:
// ordered-commit determinism of CellPool, metric-shard merge semantics,
// tracer absorption, sweep-level jobs=1 vs jobs=N bitwise equivalence,
// checkpoint resume in the middle of a parallel sweep, and the
// parse/to_string round-trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "run_session.hpp"

#include "common/assert.hpp"
#include "common/interrupt.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "exec/cell_pool.hpp"
#include "exec/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/factory.hpp"
#include "switchsim/arrivals.hpp"
#include "switchsim/slotted_sim.hpp"

namespace basrpt {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------- cell pool

TEST(CellPool, ResolveJobsSemantics) {
  EXPECT_EQ(exec::resolve_jobs(1), 1);
  EXPECT_EQ(exec::resolve_jobs(7), 7);
  EXPECT_GE(exec::resolve_jobs(0), 1);  // hardware concurrency, >= 1
  EXPECT_GE(exec::resolve_jobs(-3), 1);
}

TEST(CellPool, SequentialPathAlternatesTaskAndCommit) {
  exec::CellPool pool(1);
  std::vector<std::string> log;
  pool.run(
      4, [&](std::size_t i) { log.push_back("task" + std::to_string(i)); },
      [&](std::size_t i) { log.push_back("commit" + std::to_string(i)); });
  const std::vector<std::string> expected = {"task0", "commit0", "task1",
                                             "commit1", "task2", "commit2",
                                             "task3", "commit3"};
  EXPECT_EQ(log, expected);
}

TEST(CellPool, ParallelCommitsInSubmissionOrder) {
  exec::CellPool pool(8);
  constexpr std::size_t kCells = 32;
  std::vector<int> values(kCells, 0);
  std::vector<std::size_t> commit_order;
  pool.run(
      kCells,
      [&](std::size_t i) {
        // Deterministically uneven task durations: late indices often
        // finish before early ones, which is exactly what ordered
        // commit must hide.
        std::this_thread::sleep_for(
            std::chrono::microseconds(((i * 37) % 5) * 200));
        values[i] = static_cast<int>(i) * 3 + 1;
      },
      [&](std::size_t i) { commit_order.push_back(i); });
  ASSERT_EQ(commit_order.size(), kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(values[i], static_cast<int>(i) * 3 + 1);
  }
}

TEST(CellPool, LowestFailingIndexWinsAndPrefixCommits) {
  exec::CellPool pool(4);
  std::vector<std::size_t> committed;
  try {
    pool.run(
        16,
        [&](std::size_t i) {
          if (i == 9) {  // wall-clock-first failure at a later index
            throw std::runtime_error("cell 9 failed");
          }
          if (i == 5) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            throw std::runtime_error("cell 5 failed");
          }
        },
        [&](std::size_t i) { committed.push_back(i); });
    FAIL() << "expected the cell-5 exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 5 failed");
  }
  const std::vector<std::size_t> expected = {0, 1, 2, 3, 4};
  EXPECT_EQ(committed, expected);
}

TEST(CellPool, CommitExceptionStopsTheRun) {
  exec::CellPool pool(4);
  std::vector<std::size_t> committed;
  EXPECT_THROW(
      pool.run(
          12, [&](std::size_t) {},
          [&](std::size_t i) {
            if (i == 3) {
              throw std::runtime_error("commit 3 failed");
            }
            committed.push_back(i);
          }),
      std::runtime_error);
  const std::vector<std::size_t> expected = {0, 1, 2};
  EXPECT_EQ(committed, expected);
}

// ------------------------------------------------------ registry merge

void fill_shard_a(obs::Registry& r) {
  r.counter("events").add(10);
  r.counter("only_a").add(2);
  r.gauge("level").set(1.5);
  r.histogram("lat").add(100);
  r.histogram("lat").add(7);
}

void fill_shard_b(obs::Registry& r) {
  r.counter("events").add(5);
  r.gauge("level").set(0.5);  // last write; peak stays 1.5 after merge
  r.histogram("lat").add(900000);
}

void expect_equal(const obs::Registry& x, const obs::Registry& y) {
  ASSERT_EQ(x.counters().size(), y.counters().size());
  for (const auto& [name, c] : x.counters()) {
    ASSERT_TRUE(y.counters().count(name)) << name;
    EXPECT_EQ(c.value(), y.counters().at(name).value()) << name;
  }
  ASSERT_EQ(x.gauges().size(), y.gauges().size());
  for (const auto& [name, g] : x.gauges()) {
    ASSERT_TRUE(y.gauges().count(name)) << name;
    EXPECT_EQ(g.value(), y.gauges().at(name).value()) << name;
    EXPECT_EQ(g.max(), y.gauges().at(name).max()) << name;
  }
  ASSERT_EQ(x.histograms().size(), y.histograms().size());
  for (const auto& [name, h] : x.histograms()) {
    ASSERT_TRUE(y.histograms().count(name)) << name;
    const auto& o = y.histograms().at(name);
    EXPECT_EQ(h.count(), o.count()) << name;
    EXPECT_EQ(h.sum(), o.sum()) << name;
    EXPECT_EQ(h.min(), o.min()) << name;
    EXPECT_EQ(h.max(), o.max()) << name;
    for (std::size_t k = 0; k < obs::LatencyHistogram::kBuckets; ++k) {
      EXPECT_EQ(h.bucket_count(k), o.bucket_count(k)) << name << "/" << k;
    }
  }
}

TEST(RegistryMerge, ShardMergeReproducesSequentialRecording) {
  obs::Registry sequential;
  fill_shard_a(sequential);
  fill_shard_b(sequential);

  obs::Registry a, b, merged;
  fill_shard_a(a);
  fill_shard_b(b);
  merged.merge_from(a);
  merged.merge_from(b);

  expect_equal(merged, sequential);
  EXPECT_EQ(merged.counters().at("events").value(), 15);
  EXPECT_EQ(merged.gauges().at("level").value(), 0.5);
  EXPECT_EQ(merged.gauges().at("level").max(), 1.5);
  EXPECT_EQ(merged.histograms().at("lat").count(), 3u);
  EXPECT_EQ(merged.histograms().at("lat").min(), 7u);
  EXPECT_EQ(merged.histograms().at("lat").max(), 900000u);
}

TEST(RegistryMerge, MergeIsAssociativeInCommitOrder) {
  obs::Registry a, b, c;
  fill_shard_a(a);
  fill_shard_b(b);
  c.counter("events").add(1);
  c.gauge("level").set(9.0);
  c.histogram("lat").add(3);

  obs::Registry left;  // ((a + b) + c)
  left.merge_from(a);
  left.merge_from(b);
  left.merge_from(c);

  obs::Registry bc = b;  // (a + (b + c))
  bc.merge_from(c);
  obs::Registry right;
  right.merge_from(a);
  right.merge_from(bc);

  expect_equal(left, right);
}

TEST(RegistryBind, RoutesActiveToTheBoundShardOnly) {
  obs::Registry& global = obs::Registry::global();
  global.reset();
  obs::Registry shard;
  {
    obs::ScopedRegistryBind bind(&shard);
    obs::Registry::active().counter("bound").add(3);
    EXPECT_EQ(&obs::Registry::active(), &shard);
  }
  EXPECT_EQ(&obs::Registry::active(), &global);
  EXPECT_EQ(shard.counters().at("bound").value(), 3);
  EXPECT_EQ(global.counters().count("bound"), 0u);
  global.reset();
}

TEST(RegistryBind, NestingRestoresThePreviousBinding) {
  obs::Registry outer, inner;
  obs::ScopedRegistryBind bind_outer(&outer);
  {
    obs::ScopedRegistryBind bind_inner(&inner);
    EXPECT_EQ(&obs::Registry::active(), &inner);
    {
      obs::ScopedRegistryBind noop(nullptr);  // no-op binding
      EXPECT_EQ(&obs::Registry::active(), &inner);
    }
  }
  EXPECT_EQ(&obs::Registry::active(), &outer);
}

// ------------------------------------------------------- tracer absorb

TEST(TracerAbsorb, RenumbersRunsAndDrainsTheSource) {
  obs::FlowTracer target;
  target.begin_run();
  target.on_arrival(0, 1, 2, 0.1, 100.0);
  target.begin_run();
  target.on_arrival(0, 1, 2, 0.2, 200.0);  // target now at run 2

  obs::FlowTracer shard;
  shard.begin_run();
  shard.on_arrival(0, 3, 4, 0.3, 300.0);
  shard.on_completion(0, 3, 4, 0.4, 300.0);

  target.absorb(shard);
  ASSERT_EQ(target.size(), 4u);
  EXPECT_EQ(target.records()[1].run, 2);
  EXPECT_EQ(target.records()[2].run, 3);  // shard run 1 -> 2 + 1
  EXPECT_EQ(target.records()[3].run, 3);
  EXPECT_EQ(target.records()[2].src, 3);
  EXPECT_EQ(target.run(), 3);

  EXPECT_TRUE(shard.empty());
  shard.begin_run();  // a reused shard starts at run 1 again
  shard.on_arrival(9, 0, 0, 1.0, 1.0);
  EXPECT_EQ(shard.records()[0].run, 1);
}

// ------------------------------------------------------ seed derivation

TEST(CellSeed, DeterministicAndDecorrelated) {
  const std::uint64_t base = 42;
  EXPECT_EQ(exec::derive_cell_seed(base, 0), exec::derive_cell_seed(base, 0));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) {
    seeds.push_back(exec::derive_cell_seed(base, i));
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << i << "," << j;
    }
  }
  EXPECT_NE(exec::derive_cell_seed(1, 0), exec::derive_cell_seed(2, 0));
}

// ------------------------------------------------- sweep differentials

core::ExperimentConfig tiny_config(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.load = 0.6;
  config.query_share = 0.2;
  config.horizon = seconds(0.05);
  config.sample_every = milliseconds(2.0);
  config.seed = seed;
  config.scheduler = sched::SchedulerSpec::fast_basrpt(100.0);
  return config;
}

void expect_same_result(const core::ExperimentResult& a,
                        const core::ExperimentResult& b) {
  EXPECT_EQ(a.query_avg_ms, b.query_avg_ms);
  EXPECT_EQ(a.query_p99_ms, b.query_p99_ms);
  EXPECT_EQ(a.background_avg_ms, b.background_avg_ms);
  EXPECT_EQ(a.throughput_gbps, b.throughput_gbps);
  EXPECT_EQ(a.total_tail_mean_bytes, b.total_tail_mean_bytes);
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
}

std::vector<core::ExperimentResult> run_experiment_sweep(
    int jobs, obs::FlowTracer* tracer) {
  std::vector<core::ExperimentResult> results;
  exec::Sweep sweep;
  for (std::uint64_t i = 0; i < 4; ++i) {
    core::ExperimentConfig config =
        tiny_config(exec::derive_cell_seed(7, i));
    config.tracer = tracer;
    sweep.add("cell" + std::to_string(i), config,
              [&](const core::ExperimentResult& r) { results.push_back(r); });
  }
  sweep.run(jobs, tracer);
  return results;
}

TEST(SweepDifferential, ParallelExperimentCellsMatchSequentialBitwise) {
  const auto seq = run_experiment_sweep(1, nullptr);
  const auto par = run_experiment_sweep(4, nullptr);
  ASSERT_EQ(seq.size(), 4u);
  ASSERT_EQ(par.size(), 4u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    expect_same_result(seq[i], par[i]);
  }
}

TEST(SweepDifferential, SharedTracerStreamIsIdenticalAtAnyJobs) {
  obs::FlowTracer t_seq, t_par;
  run_experiment_sweep(1, &t_seq);
  run_experiment_sweep(4, &t_par);
  ASSERT_GT(t_seq.size(), 0u);
  ASSERT_EQ(t_seq.size(), t_par.size());
  for (std::size_t i = 0; i < t_seq.size(); ++i) {
    const auto& a = t_seq.records()[i];
    const auto& b = t_par.records()[i];
    EXPECT_EQ(static_cast<int>(a.event), static_cast<int>(b.event)) << i;
    EXPECT_EQ(a.flow, b.flow) << i;
    EXPECT_EQ(a.src, b.src) << i;
    EXPECT_EQ(a.dst, b.dst) << i;
    EXPECT_EQ(a.time_sec, b.time_sec) << i;
    EXPECT_EQ(a.remaining, b.remaining) << i;
    EXPECT_EQ(a.run, b.run) << i;
  }
}

std::vector<switchsim::SlottedResult> run_slotted_sweep(int jobs) {
  std::vector<switchsim::SlottedResult> results;
  const auto rates = switchsim::skewed_rates(4, 0.8, 0.6);
  switchsim::SizeMix mix;
  mix.small = 1;
  mix.large = 8;
  mix.p_small = 0.9;
  exec::Sweep sweep;
  for (const double v : {10.0, 1000.0}) {
    switchsim::SlottedConfig config;
    config.n_ports = 4;
    config.horizon = 2000;
    config.sample_every = 16;
    sweep.add_slotted(
        "v" + std::to_string(static_cast<int>(v)), config,
        [v] {
          return sched::make_scheduler(sched::SchedulerSpec::fast_basrpt(v));
        },
        [rates, mix] {
          return switchsim::bernoulli_arrivals(rates, mix, 2000, Rng(3));
        },
        [&](const switchsim::SlottedResult& r) { results.push_back(r); });
  }
  sweep.run(jobs);
  return results;
}

TEST(SweepDifferential, ParallelSlottedCellsMatchSequentialBitwise) {
  const auto seq = run_slotted_sweep(1);
  const auto par = run_slotted_sweep(4);
  ASSERT_EQ(seq.size(), 2u);
  ASSERT_EQ(par.size(), 2u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].backlog_packets.mean(), par[i].backlog_packets.mean());
    EXPECT_EQ(seq[i].penalty.mean(), par[i].penalty.mean());
    EXPECT_EQ(seq[i].throughput_pkts_per_slot(),
              par[i].throughput_pkts_per_slot());
    EXPECT_EQ(seq[i].fct.summary(stats::FlowClass::kQuery).mean_seconds,
              par[i].fct.summary(stats::FlowClass::kQuery).mean_seconds);
  }
}

/// One sweep cell's share of the decide-site metrics, read from the
/// global registry at its commit (a parallel cell's shard is merged
/// before its commit runs, so the deltas are per cell at any --jobs).
struct CellSched {
  std::int64_t decisions = 0;
  std::int64_t preemptions = 0;
  std::uint64_t decision_ns_samples = 0;
  std::uint64_t candidates_sum = 0;
  std::uint64_t matching_sum = 0;
  std::uint64_t slotted_invocations = 0;  // 0 for flowsim cells
  bool operator==(const CellSched&) const = default;
};

CellSched sched_totals() {
  const obs::Registry& g = obs::Registry::global();
  const auto counter = [&g](const char* name) {
    const auto it = g.counters().find(name);
    return it == g.counters().end() ? 0 : it->second.value();
  };
  const auto hist = [&g](const char* name) {
    const auto it = g.histograms().find(name);
    return it == g.histograms().end() ? obs::LatencyHistogram{} : it->second;
  };
  CellSched t;
  t.decisions = counter("sched.decisions");
  t.preemptions = counter("sched.preemptions");
  t.decision_ns_samples = hist("sched.decision_ns").count();
  t.candidates_sum = hist("sched.candidates").sum();
  t.matching_sum = hist("sched.matching_size").sum();
  return t;
}

/// Two flowsim and two slotted cells with obs on; returns each cell's
/// sched.* delta and leaves the sweep's final registry in `final_out`.
std::vector<CellSched> run_observed_mixed_sweep(int jobs,
                                                obs::Registry& final_out) {
  obs::Registry::global().reset();
  std::vector<CellSched> cells;
  CellSched seen;
  const auto record = [&](std::uint64_t invocations) {
    const CellSched now = sched_totals();
    CellSched d;
    d.decisions = now.decisions - seen.decisions;
    d.preemptions = now.preemptions - seen.preemptions;
    d.decision_ns_samples = now.decision_ns_samples - seen.decision_ns_samples;
    d.candidates_sum = now.candidates_sum - seen.candidates_sum;
    d.matching_sum = now.matching_sum - seen.matching_sum;
    d.slotted_invocations = invocations;
    cells.push_back(d);
    seen = now;
  };
  const auto rates = switchsim::skewed_rates(4, 0.8, 0.6);
  switchsim::SizeMix mix;
  mix.small = 1;
  mix.large = 8;
  mix.p_small = 0.9;
  exec::Sweep sweep;
  for (std::uint64_t i = 0; i < 2; ++i) {
    sweep.add("flow" + std::to_string(i),
              tiny_config(exec::derive_cell_seed(5, i)),
              [&](const core::ExperimentResult&) { record(0); });
    switchsim::SlottedConfig config;
    config.n_ports = 4;
    config.horizon = 2000;
    config.sample_every = 16;
    const double v = i == 0 ? 10.0 : 1000.0;
    sweep.add_slotted(
        "slot" + std::to_string(i), config,
        [v] {
          return sched::make_scheduler(sched::SchedulerSpec::fast_basrpt(v));
        },
        [rates, mix] {
          return switchsim::bernoulli_arrivals(rates, mix, 2000, Rng(3));
        },
        [&](const switchsim::SlottedResult& r) {
          record(r.scheduler_invocations);
        });
  }
  sweep.run(jobs);
  final_out = obs::Registry::global();
  obs::Registry::global().reset();
  return cells;
}

void expect_same_histogram(const obs::Registry& a, const obs::Registry& b,
                           const std::string& name) {
  SCOPED_TRACE(name);
  const obs::LatencyHistogram& x = a.histograms().at(name);
  const obs::LatencyHistogram& y = b.histograms().at(name);
  EXPECT_EQ(x.count(), y.count());
  EXPECT_EQ(x.sum(), y.sum());
  EXPECT_EQ(x.min(), y.min());
  EXPECT_EQ(x.max(), y.max());
  for (std::size_t k = 0; k < obs::LatencyHistogram::kBuckets; ++k) {
    EXPECT_EQ(x.bucket_count(k), y.bucket_count(k)) << k;
  }
}

TEST(SweepDifferential, DecideSiteMetricsMatchAtAnyJobs) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Registry final_seq, final_par;
  const auto seq = run_observed_mixed_sweep(1, final_seq);
  const auto par = run_observed_mixed_sweep(3, final_par);
  obs::set_enabled(was_enabled);

  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq, par);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_GT(seq[i].decisions, 0);
    // One sched.decision_ns sample per decision: one clock pair each.
    EXPECT_EQ(seq[i].decision_ns_samples,
              static_cast<std::uint64_t>(seq[i].decisions));
    if (i % 2 == 1) {  // slotted cells decide once per invocation
      EXPECT_EQ(static_cast<std::uint64_t>(seq[i].decisions),
                seq[i].slotted_invocations);
    }
  }
  // The per-cell deltas cover counts and sums; min, max and buckets are
  // compared on the merged histograms.
  expect_same_histogram(final_seq, final_par, "sched.candidates");
  expect_same_histogram(final_seq, final_par, "sched.matching_size");
}

// --------------------------------------- run session: parallel resume

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("basrpt_exec_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Declares `count` cells on `session` and returns their results.
std::vector<core::ExperimentResult> run_session_sweep(
    bench::RunSession& session, std::size_t count) {
  std::vector<std::optional<core::ExperimentResult>> slots(count);
  exec::Sweep sweep;
  for (std::size_t i = 0; i < count; ++i) {
    core::ExperimentConfig config =
        tiny_config(exec::derive_cell_seed(11, i));
    session.apply(config);
    sweep.add("cell" + std::to_string(i), config,
              [&slots, i](const core::ExperimentResult& r) { slots[i] = r; });
  }
  session.run_sweep(sweep);
  std::vector<core::ExperimentResult> results;
  for (auto& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

TEST(RunSession, ResumesAStoredPrefixInsideAParallelSweep) {
  TempDir tmp;
  const std::string dir = tmp.path.string();

  // Reference: all four cells, no checkpointing, sequential.
  std::vector<core::ExperimentResult> reference;
  {
    CliParser cli("test_exec", "reference");
    const char* argv[] = {"test_exec"};
    ASSERT_TRUE(bench::parse_common(cli, 1, argv));
    bench::RunSession session(cli, "exec_resume", 4, seconds(1.0));
    reference = run_session_sweep(session, 4);
  }

  // Phase 1: the first two cells, checkpointed, at --jobs 2.
  {
    CliParser cli("test_exec", "phase1");
    const char* argv[] = {"test_exec", "--checkpoint-dir", dir.c_str(),
                          "--jobs", "2"};
    ASSERT_TRUE(bench::parse_common(cli, 5, argv));
    bench::RunSession session(cli, "exec_resume", 4, seconds(1.0));
    const auto phase1 = run_session_sweep(session, 2);
    ASSERT_EQ(phase1.size(), 2u);
    expect_same_result(phase1[0], reference[0]);
    expect_same_result(phase1[1], reference[1]);
  }

  // Phase 2: all four cells with --resume latest at --jobs 4 — the two
  // stored cells replay from the snapshot, the rest run in parallel.
  {
    CliParser cli("test_exec", "phase2");
    const char* argv[] = {"test_exec", "--checkpoint-dir", dir.c_str(),
                          "--resume",  "latest",           "--jobs",
                          "4"};
    ASSERT_TRUE(bench::parse_common(cli, 7, argv));
    bench::RunSession session(cli, "exec_resume", 4, seconds(1.0));
    const auto resumed = run_session_sweep(session, 4);
    ASSERT_EQ(resumed.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      expect_same_result(resumed[i], reference[i]);
    }
  }
}

// ------------------------------- run session: mid-cell slotted resume

void expect_same_slotted(const switchsim::SlottedResult& a,
                         const switchsim::SlottedResult& b) {
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.left_packets, b.left_packets);
  EXPECT_EQ(a.backlog_packets.mean(), b.backlog_packets.mean());
  EXPECT_EQ(a.penalty.mean(), b.penalty.mean());
  EXPECT_EQ(a.fct.summary(stats::FlowClass::kQuery).mean_seconds,
            b.fct.summary(stats::FlowClass::kQuery).mean_seconds);
}

/// Declares two slotted cells on `session` and returns their results.
/// With `interrupt_at` > 0, the second cell's arrival stream requests
/// an interrupt once it pulls an arrival at or past that slot.
std::vector<switchsim::SlottedResult> run_slotted_session_sweep(
    bench::RunSession& session, switchsim::Slot interrupt_at = 0) {
  constexpr switchsim::Slot kHorizon = 3000;
  const auto rates = switchsim::skewed_rates(4, 0.8, 0.6);
  switchsim::SizeMix mix;
  mix.small = 1;
  mix.large = 8;
  mix.p_small = 0.9;
  std::vector<std::optional<switchsim::SlottedResult>> slots(2);
  exec::Sweep sweep;
  for (std::size_t i = 0; i < 2; ++i) {
    switchsim::SlottedConfig config;
    config.n_ports = 4;
    config.horizon = kHorizon;
    config.sample_every = 16;
    session.apply(config);
    const switchsim::Slot trip = i == 1 ? interrupt_at : 0;
    sweep.add_slotted(
        "cell" + std::to_string(i), config,
        [] {
          return sched::make_scheduler(sched::SchedulerSpec::fast_basrpt(100.0));
        },
        [rates, mix, trip, i]() -> switchsim::ArrivalStream {
          auto stream =
              switchsim::bernoulli_arrivals(rates, mix, kHorizon, Rng(5 + i));
          if (trip <= 0) {
            return stream;
          }
          return [stream, trip]() mutable {
            auto arrival = stream();
            if (arrival && arrival->slot >= trip) {
              request_interrupt(0);
            }
            return arrival;
          };
        },
        [&slots, i](const switchsim::SlottedResult& r) { slots[i] = r; });
  }
  session.run_sweep(sweep);
  std::vector<switchsim::SlottedResult> results;
  for (auto& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

TEST(RunSession, SlottedCellInterruptedAtJobsOneResumesMidRun) {
  TempDir tmp;
  const std::string dir = tmp.path.string();

  std::vector<switchsim::SlottedResult> reference;
  {
    CliParser cli("test_exec", "reference");
    const char* argv[] = {"test_exec"};
    ASSERT_TRUE(bench::parse_common(cli, 1, argv));
    bench::RunSession session(cli, "exec_midrun", 4, seconds(3000.0));
    reference = run_slotted_session_sweep(session);
  }

  // Phase 1: the second cell is interrupted mid-run; the session
  // checkpoints and exits 3 (programmatic interrupt). The newest file
  // must carry the mid-run state, not a wip-less cell prefix.
  const char* argv[] = {"test_exec",          "--checkpoint-dir",
                        dir.c_str(),          "--checkpoint-every",
                        "500",                "--resume",
                        "latest",             "--jobs",
                        "1"};
  EXPECT_EXIT(
      {
        CliParser cli("test_exec", "phase1");
        bench::parse_common(cli, 5, argv);
        bench::RunSession session(cli, "exec_midrun", 4, seconds(3000.0));
        run_slotted_session_sweep(session, 1200);
      },
      ::testing::ExitedWithCode(3), "interrupted");

  // Phase 2: resume at --jobs 1. Cell 0 replays, cell 1 continues from
  // its mid-run snapshot, and both match the uninterrupted run.
  CliParser cli("test_exec", "phase2");
  ASSERT_TRUE(bench::parse_common(cli, 9, argv));
  ::testing::internal::CaptureStderr();
  std::vector<switchsim::SlottedResult> resumed;
  {
    bench::RunSession session(cli, "exec_midrun", 4, seconds(3000.0));
    resumed = run_slotted_session_sweep(session);
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("cell 'cell0' replayed"), std::string::npos) << err;
  EXPECT_NE(err.find("cell 'cell1' resuming mid-run"), std::string::npos)
      << err;
  ASSERT_EQ(resumed.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_same_slotted(resumed[i], reference[i]);
  }
}

TEST(RunSession, SlottedCellsHonorTheFaultPlan) {
  CliParser cli("test_exec", "faults");
  const char* argv[] = {"test_exec", "--fault-plan", "random"};
  ASSERT_TRUE(bench::parse_common(cli, 3, argv));
  bench::RunSession session(cli, "exec_faults", 4, seconds(3000.0));
  ASSERT_TRUE(session.fault_active());
  const auto results = run_slotted_session_sweep(session);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].fault_stats.transitions, 0);
  EXPECT_GT(results[1].fault_stats.transitions, 0);
}

TEST(RunSession, ProfileFlagsDoNotBreakResume) {
  TempDir tmp;
  const std::string dir = tmp.path.string();
  const std::string profile_out = (tmp.path / "profile.json").string();

  std::vector<core::ExperimentResult> checkpointed;
  {
    CliParser cli("test_exec", "checkpoint");
    const char* argv[] = {"test_exec", "--checkpoint-dir", dir.c_str()};
    ASSERT_TRUE(bench::parse_common(cli, 3, argv));
    bench::RunSession session(cli, "exec_profile", 4, seconds(1.0));
    checkpointed = run_session_sweep(session, 2);
  }

  // Profiling cannot change results, so it must not change the resume
  // fingerprint either.
  CliParser cli("test_exec", "resume");
  const char* argv[] = {"test_exec", "--checkpoint-dir", dir.c_str(),
                        "--resume",  "latest",           "--profile",
                        "--profile-out", profile_out.c_str()};
  ASSERT_TRUE(bench::parse_common(cli, 8, argv));
  bench::RunSession session(cli, "exec_profile", 4, seconds(1.0));
  const auto resumed = run_session_sweep(session, 2);
  session.finish();
  ASSERT_EQ(resumed.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_same_result(resumed[i], checkpointed[i]);
  }
}

// ------------------------------------------------- scheduler spec text

TEST(SchedulerSpecText, RoundTripsEveryFactorySpec) {
  const std::vector<sched::SchedulerSpec> specs = {
      sched::SchedulerSpec::srpt(),
      sched::SchedulerSpec::fast_basrpt(2500.0),
      sched::SchedulerSpec::threshold_srpt(1000.0),
      sched::SchedulerSpec::exact_basrpt(416.25),
      sched::SchedulerSpec::maxweight(),
      sched::SchedulerSpec::fifo(),
      sched::SchedulerSpec::dist_basrpt(138.88888888888889, 4),
      sched::SchedulerSpec::fast_basrpt(2500.0).with_size_error(4.0),
  };
  for (const auto& spec : specs) {
    const std::string text = spec.to_string();
    const sched::SchedulerSpec parsed = sched::SchedulerSpec::parse(text);
    EXPECT_EQ(parsed.policy, spec.policy) << text;
    EXPECT_EQ(parsed.to_string(), text) << text;
    if (spec.policy == sched::Policy::kFastBasrpt ||
        spec.policy == sched::Policy::kExactBasrpt ||
        spec.policy == sched::Policy::kDistBasrpt) {
      EXPECT_EQ(parsed.v, spec.v) << text;
    }
    if (spec.policy == sched::Policy::kThresholdSrpt) {
      EXPECT_EQ(parsed.threshold_packets, spec.threshold_packets) << text;
    }
    if (spec.policy == sched::Policy::kDistBasrpt) {
      EXPECT_EQ(parsed.rounds, spec.rounds) << text;
    }
    EXPECT_EQ(parsed.size_error, spec.size_error) << text;
    if (spec.size_error > 1.0) {
      EXPECT_EQ(parsed.noise_seed, spec.noise_seed) << text;
    }
  }
}

TEST(SchedulerSpecText, UnderscoresAndDashesAreInterchangeable) {
  const auto a = sched::SchedulerSpec::parse("fast_basrpt:v=2500");
  const auto b = sched::SchedulerSpec::parse("fast-basrpt:v=2500");
  EXPECT_EQ(a.policy, sched::Policy::kFastBasrpt);
  EXPECT_EQ(a.v, b.v);
  const auto c = sched::SchedulerSpec::parse("srpt:noise_seed=9:err=2");
  EXPECT_EQ(c.noise_seed, 9u);
  EXPECT_EQ(c.size_error, 2.0);
}

TEST(SchedulerSpecText, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",                      // empty policy
      "bogus",                 // unknown policy
      "srpt:v=5",              // v does not apply to srpt
      "fast-basrpt:v=",        // empty value
      "fast-basrpt:v=abc",     // not a number
      "fast-basrpt:v=1:v=2",   // repeated key
      "fast-basrpt:v=-3",      // v must be >= 0
      "dist-basrpt:rounds=0",  // rounds must be >= 1
      "srpt:err=0.5",          // err must be >= 1
      "fast-basrpt:unknown=1",  // unknown key
      "srpt:threshold=10",     // threshold only for threshold-srpt
      "fast-basrpt:rounds=2",  // rounds only for dist-basrpt
  };
  for (const auto& text : bad) {
    EXPECT_THROW(sched::SchedulerSpec::parse(text), ConfigError) << text;
  }
}

}  // namespace
}  // namespace basrpt
