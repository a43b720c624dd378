// Tests for the perf subsystem: the JSON number rule and the bytes of
// the basrpt-bench-v1 and basrpt-profile-v1 writers, the allocation
// counter and its per-phase attribution, the phase profiler's
// self/child accounting, the measurement harness and the CellPool perf
// counters. Records are read only by scripts/perf_gate.py; its
// `--self-test` checks (the reader's validation among them) and the
// writer-to-reader contract run as ctests of their own.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_escape.hpp"
#include "exec/cell_pool.hpp"
#include "perf/bench_record.hpp"
#include "perf/measure.hpp"
#include "perf/profiler.hpp"

namespace {

using namespace basrpt;

// ----------------------------------------------------------------- JSON

// The number rule both perf writers share: integers below 9e15 print
// without a fractional part, other finite values round-trip at %.17g,
// and non-finite values become null.
TEST(PerfJson, IntegersSerializeWithoutExponent) {
  EXPECT_EQ(json_number(7384551.0), "7384551");
  EXPECT_EQ(json_number(-3.0), "-3");
  EXPECT_EQ(json_number(1e18), "1e+18");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

// --------------------------------------------------------- bench records

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The record writer's bytes for a fixed record: key order, 2-space
// indentation, the ": " separator, integer vs %.17g numbers, the empty
// params object and the trailing newline.
TEST(BenchRecord, WriterBytesArePinned) {
  perf::BenchRecord r;
  r.name = "pinned";
  r.commit = "0123abcd";
  r.host = "host-a";
  r.cpu = "Test CPU @ 2.00GHz";
  r.hw_threads = 4;
  r.generated_unix = 1700000000;
  r.warmup = 10;
  r.reps = 3;
  perf::BenchCase a;
  a.label = "decide/srpt/ports=32";
  a.param("scheduler", "srpt");
  a.param("ports", "32");
  a.metric("decisions_per_sec", 1250000.0);
  a.metric("ns_p99", 0.1);
  r.cases.push_back(a);
  perf::BenchCase b;
  b.label = "empty-params";
  b.metric("allocs_per_decision", 0.0);
  b.metric("events", 1e18);
  r.cases.push_back(b);

  const std::string path = "test_perf_pinned_record.json";
  perf::write_record_file(path, r);
  const std::string got = read_file(path);
  std::filesystem::remove(path);
  EXPECT_EQ(got, R"({
  "schema": "basrpt-bench-v1",
  "name": "pinned",
  "commit": "0123abcd",
  "host": {
    "hostname": "host-a",
    "cpu": "Test CPU @ 2.00GHz",
    "hw_threads": 4
  },
  "generated_unix": 1700000000,
  "warmup": 10,
  "reps": 3,
  "cases": [
    {
      "label": "decide/srpt/ports=32",
      "params": {
        "scheduler": "srpt",
        "ports": "32"
      },
      "metrics": {
        "decisions_per_sec": 1250000,
        "ns_p99": 0.10000000000000001
      }
    },
    {
      "label": "empty-params",
      "params": {},
      "metrics": {
        "allocs_per_decision": 0,
        "events": 1e+18
      }
    }
  ]
}
)");
}

// ------------------------------------------------- allocation attribution

TEST(Profiler, AllocationCounterAttributesToActivePhase) {
  perf::Profiler& profiler = perf::Profiler::global();
  profiler.reset();
  const bool was_counting = perf::alloc_counting();
  perf::set_profiling(true);

  const std::uint64_t decide_before =
      profiler.stats(perf::Phase::kDecide).allocs;
  {
    const perf::ScopedPhase phase(perf::Phase::kDecide);
    perf::note_alloc(64);
    perf::note_alloc(128);
  }
  perf::note_alloc(32);  // outside any phase -> unattributed

  const perf::PhaseStats decide = profiler.stats(perf::Phase::kDecide);
  EXPECT_EQ(decide.allocs - decide_before, 2u);
  EXPECT_GE(decide.alloc_bytes, 192u);
  EXPECT_GE(profiler.unattributed().allocs, 1u);

  perf::set_profiling(false);
  perf::set_alloc_counting(was_counting);
}

TEST(Profiler, RealAllocationsAreCountedWhileEnabled) {
  perf::Profiler& profiler = perf::Profiler::global();
  profiler.reset();
  perf::set_alloc_counting(true);
  const std::uint64_t before = perf::alloc_total();
  {
    std::vector<int> v(1024, 7);
    // The vector's buffer must hit the interposer.
    EXPECT_NE(v.data(), nullptr);
  }
  const std::uint64_t after = perf::alloc_total();
  perf::set_alloc_counting(false);
  EXPECT_GT(after, before);

  // Off means off: no counting while disabled.
  const std::uint64_t off_before = perf::alloc_total();
  { std::vector<int> v(1024, 9); }
  EXPECT_EQ(perf::alloc_total(), off_before);
}

// ------------------------------------------------------- phase profiler

void spin_for_us(int us) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::microseconds(us)) {
  }
}

TEST(Profiler, SelfTimeExcludesNestedPhases) {
  perf::Profiler& profiler = perf::Profiler::global();
  profiler.reset();
  perf::set_profiling(true);
  profiler.begin_window();
  {
    const perf::ScopedPhase outer(perf::Phase::kEventDispatch);
    spin_for_us(2000);
    {
      const perf::ScopedPhase inner(perf::Phase::kDecide);
      spin_for_us(4000);
    }
  }
  profiler.end_window();
  perf::set_profiling(false);

  const perf::PhaseStats outer = profiler.stats(perf::Phase::kEventDispatch);
  const perf::PhaseStats inner = profiler.stats(perf::Phase::kDecide);
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 1u);
  // Outer total includes the nested 4 ms; outer self does not.
  EXPECT_GE(outer.total_ns, 5'000'000u);
  EXPECT_LT(outer.self_ns, 4'000'000u);
  EXPECT_GE(inner.self_ns, 3'000'000u);
  // The breakdown stays additive: self times sum to ~window.
  EXPECT_GT(profiler.coverage(), 0.9);
  EXPECT_LT(profiler.coverage(), 1.1);
}

TEST(Profiler, DisarmedScopesRecordNothing) {
  perf::Profiler& profiler = perf::Profiler::global();
  profiler.reset();
  ASSERT_FALSE(perf::profiling());
  {
    const perf::ScopedPhase phase(perf::Phase::kDecide);
    spin_for_us(100);
  }
  EXPECT_EQ(profiler.stats(perf::Phase::kDecide).calls, 0u);
}

TEST(Profiler, SpanRecordingCapsAndExports) {
  perf::Profiler& profiler = perf::Profiler::global();
  profiler.reset();
  profiler.set_span_recording(true, 3);
  perf::set_profiling(true);
  profiler.begin_window();
  for (int i = 0; i < 5; ++i) {
    const perf::ScopedPhase phase(perf::Phase::kDecide);
  }
  profiler.end_window();
  perf::set_profiling(false);

  EXPECT_EQ(profiler.spans_dropped(), 2u);
  obs::FlowTracer tracer;
  profiler.export_spans(tracer);
  ASSERT_EQ(tracer.phase_spans().size(), 3u);
  EXPECT_EQ(tracer.phase_spans()[0].name, "decide");
  profiler.set_span_recording(false);

  // The merged Chrome trace carries the spans on the perf track.
  std::ostringstream out;
  tracer.write_chrome_json(out);
  EXPECT_NE(out.str().find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(out.str().find("\"name\":\"perf\""), std::string::npos);
}

// The profile writer's bytes for the deterministic state left by
// reset() plus unattributed allocations: the frame, the empty phases
// object and alloc_unattributed.
TEST(Profiler, JsonBytesArePinned) {
  perf::Profiler& profiler = perf::Profiler::global();
  const bool was_counting = perf::alloc_counting();
  perf::set_alloc_counting(false);
  profiler.reset();
  perf::set_alloc_counting(true);
  perf::note_alloc(64);
  perf::note_alloc(32);
  perf::set_alloc_counting(false);

  const std::string path = "test_perf_pinned_profile.json";
  profiler.write_json_file(path);
  const std::string got = read_file(path);
  std::filesystem::remove(path);
  profiler.reset();
  perf::set_alloc_counting(was_counting);
  EXPECT_EQ(got, R"({
  "schema": "basrpt-profile-v1",
  "window_ns": 0,
  "coverage_frac": 0,
  "phases": {},
  "alloc_unattributed": {
    "allocs": 2,
    "alloc_bytes": 96
  },
  "spans_recorded": 0,
  "spans_dropped": 0
}
)");
}

TEST(Profiler, ProfileJsonCarriesSchemaAndPhases) {
  perf::Profiler& profiler = perf::Profiler::global();
  profiler.reset();
  perf::set_profiling(true);
  profiler.begin_window();
  {
    const perf::ScopedPhase phase(perf::Phase::kCandidateRepack);
    spin_for_us(200);
  }
  profiler.end_window();
  perf::set_profiling(false);

  std::ostringstream out;
  profiler.write_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema\": \"basrpt-profile-v1\""), std::string::npos);
  const std::size_t repack = text.find("\"candidate_repack\": {");
  ASSERT_NE(repack, std::string::npos);
  EXPECT_NE(text.find("\"calls\": 1,", repack), std::string::npos);
  // Each phase entry lists its members in this order.
  std::size_t at = repack;
  for (const char* key : {"calls", "total_ns", "self_ns", "ns_p50", "ns_p99",
                          "ns_p999", "allocs", "alloc_bytes"}) {
    const std::size_t next = text.find("\"" + std::string(key) + "\": ", at);
    ASSERT_NE(next, std::string::npos) << key;
    at = next;
  }
}

// -------------------------------------------------- measurement harness

TEST(Measure, ReportsPlausibleNumbersAndZeroAllocSteadyState) {
  perf::MeasureOptions options;
  options.warmup = 10;
  options.reps = 3;
  options.rep_budget_ms = 2;
  volatile std::uint64_t sink = 0;
  const perf::Measurement m = perf::measure_op(
      [&] {
        std::uint64_t acc = 1;
        for (int i = 0; i < 50; ++i) {
          acc = acc * 6364136223846793005ull + 1442695040888963407ull;
        }
        sink = acc;
      },
      options);
  EXPECT_EQ(m.reps, 3);
  EXPECT_GT(m.iters_per_rep, 0u);
  EXPECT_GT(m.ops_per_sec, 0.0);
  EXPECT_LE(m.ns_p50, m.ns_p99);
  EXPECT_LE(m.ns_p99, m.ns_p999);
  EXPECT_DOUBLE_EQ(m.allocs_per_op, 0.0);  // the loop never allocates
}

TEST(Measure, SetupRunsUntimedAndAllocsExcludeSetup) {
  perf::MeasureOptions options;
  options.warmup = 5;
  options.reps = 2;
  options.rep_budget_ms = 1;
  options.max_iters = 200;
  int setups = 0;
  const perf::Measurement m = perf::measure_op(
      [] {}, options, [&] {
        ++setups;
        std::vector<int> churn(256);  // setup allocations must not count
        (void)churn;
      });
  EXPECT_GT(setups, 0);
  EXPECT_DOUBLE_EQ(m.allocs_per_op, 0.0);
}

// ------------------------------------------------------ CellPool perf

TEST(PoolPerf, ParallelRunRecordsBusyAndClaimCounts) {
  exec::CellPool pool(3);
  pool.run(
      12,
      [](std::size_t) {
        volatile std::uint64_t acc = 1;
        for (int i = 0; i < 20000; ++i) {
          acc = acc * 31 + 7;
        }
      },
      [](std::size_t) {});
  const exec::PoolPerf perf = exec::last_pool_perf();
  ASSERT_EQ(perf.workers(), 3u);
  EXPECT_GT(perf.wall_ns, 0u);
  std::uint64_t claimed = 0;
  for (const std::uint64_t c : perf.worker_claimed) {
    claimed += c;
  }
  EXPECT_EQ(claimed, 12u);
  std::uint64_t busy = 0;
  for (const std::uint64_t b : perf.worker_busy_ns) {
    busy += b;
  }
  EXPECT_GT(busy, 0u);
  EXPECT_GT(perf.busy_frac_mean(), 0.0);
  EXPECT_GE(perf.stall_frac(), 0.0);
}

}  // namespace
