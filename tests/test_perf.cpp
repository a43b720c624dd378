// Tests for the perf subsystem: the JSON model, basrpt-bench-v1 record
// round-trips and validation, the allocation counter and its per-phase
// attribution, the phase profiler's self/child accounting, the
// measurement harness and the CellPool perf counters. The regression
// gate's rules are checked by `scripts/perf_gate.py --self-test`, which
// runs as its own ctest.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "exec/cell_pool.hpp"
#include "perf/bench_record.hpp"
#include "perf/json.hpp"
#include "perf/measure.hpp"
#include "perf/profiler.hpp"

namespace {

using namespace basrpt;

// ----------------------------------------------------------------- JSON

TEST(PerfJson, RoundTripsTypesAndPreservesMemberOrder) {
  perf::json::Value doc = perf::json::Value::object();
  doc.set("zeta", perf::json::Value::number(1.5));
  doc.set("alpha", perf::json::Value::string("a \"quoted\"\nline"));
  doc.set("flag", perf::json::Value::boolean(true));
  doc.set("nothing", perf::json::Value());
  perf::json::Value arr = perf::json::Value::array();
  arr.push(perf::json::Value::number(-3.0));
  arr.push(perf::json::Value::number(1e18));
  doc.set("items", std::move(arr));

  const std::string text = doc.serialize(2);
  const perf::json::Value back = perf::json::parse(text, "test");
  EXPECT_EQ(back.members()[0].first, "zeta");  // insertion order kept
  EXPECT_EQ(back.members()[1].first, "alpha");
  EXPECT_DOUBLE_EQ(back.at("zeta").as_number(), 1.5);
  EXPECT_EQ(back.at("alpha").as_string(), "a \"quoted\"\nline");
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_TRUE(back.at("nothing").is_null());
  EXPECT_DOUBLE_EQ(back.at("items").items()[1].as_number(), 1e18);
  // Serialization is deterministic: a second pass is byte-identical.
  EXPECT_EQ(perf::json::parse(text, "test").serialize(2), text);
}

TEST(PerfJson, IntegersSerializeWithoutExponent) {
  perf::json::Value v = perf::json::Value::number(7384551.0);
  EXPECT_EQ(v.serialize(), "7384551");
}

TEST(PerfJson, ParseErrorsCarryLineNumbers) {
  // Truncated object: the error points past the last line seen.
  try {
    perf::json::parse("{\n  \"a\": 1,\n  \"b\": ", "trunc");
    FAIL() << "truncated document parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("trunc"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW(perf::json::parse("{\"a\": 1} garbage", "t"), ParseError);
  EXPECT_THROW(perf::json::parse("{\"a\" 1}", "t"), ParseError);
  EXPECT_THROW(perf::json::parse("\"unterminated", "t"), ParseError);
  EXPECT_THROW(perf::json::parse("\"bad \\q escape\"", "t"), ParseError);
  EXPECT_THROW(perf::json::parse("", "t"), ParseError);
  EXPECT_THROW(perf::json::parse("nul", "t"), ParseError);
  std::string deep;
  for (int i = 0; i < 100; ++i) {
    deep += "[";
  }
  EXPECT_THROW(perf::json::parse(deep, "t"), ParseError);
}

TEST(PerfJson, TypedAccessorsRejectKindMismatch) {
  const perf::json::Value v = perf::json::parse("{\"a\": 1}", "t");
  EXPECT_THROW(v.at("a").as_string(), ConfigError);
  EXPECT_THROW(v.at("missing"), ConfigError);
  EXPECT_EQ(v.find("missing"), nullptr);
}

// --------------------------------------------------------- bench records

perf::BenchRecord sample_record() {
  perf::BenchRecord r = perf::make_record("unit", 100, 5);
  perf::BenchCase c;
  c.label = "decide/srpt/ports=144";
  c.param("ports", "144");
  c.metric("decisions_per_sec", 1.25e6);
  c.metric("ns_p99", 2048.0);
  c.metric("allocs_per_decision", 0.0);
  r.cases.push_back(c);
  return r;
}

TEST(BenchRecord, RoundTripsThroughDisk) {
  const std::string path = "test_perf_record.json";
  const perf::BenchRecord r = sample_record();
  perf::write_record_file(path, r);
  const perf::BenchRecord back = perf::read_record_file(path);
  std::filesystem::remove(path);

  EXPECT_EQ(back.schema, perf::kBenchSchema);
  EXPECT_EQ(back.name, "unit");
  EXPECT_EQ(back.warmup, 100);
  EXPECT_EQ(back.reps, 5);
  ASSERT_EQ(back.cases.size(), 1u);
  EXPECT_EQ(back.cases[0].label, "decide/srpt/ports=144");
  ASSERT_NE(back.cases[0].find_metric("decisions_per_sec"), nullptr);
  EXPECT_DOUBLE_EQ(*back.cases[0].find_metric("decisions_per_sec"), 1.25e6);
  ASSERT_EQ(back.cases[0].params.size(), 1u);
  EXPECT_EQ(back.cases[0].params[0].second, "144");
}

TEST(BenchRecord, RejectsWrongSchemaAndDuplicateLabels) {
  perf::json::Value doc =
      perf::json::parse(perf::record_to_json(sample_record()).serialize(),
                        "t");
  doc.set("schema", perf::json::Value::string("basrpt-bench-v999"));
  EXPECT_THROW(perf::record_from_json(doc, "t"), ConfigError);

  perf::BenchRecord dup = sample_record();
  dup.cases.push_back(dup.cases[0]);
  EXPECT_THROW(
      perf::record_from_json(
          perf::json::parse(perf::record_to_json(dup).serialize(), "t"), "t"),
      ConfigError);
}

TEST(BenchRecord, CorruptAndTruncatedFilesThrowParseError) {
  const std::string path = "test_perf_corrupt.json";
  const std::string good = perf::record_to_json(sample_record()).serialize(2);
  {
    std::ofstream out(path);
    out << good.substr(0, good.size() / 2);  // truncated mid-document
  }
  EXPECT_THROW(perf::read_record_file(path), ParseError);
  {
    std::ofstream out(path);
    out << "{\"schema\": \"basrpt-bench-v1\", }";
  }
  EXPECT_THROW(perf::read_record_file(path), ParseError);
  std::filesystem::remove(path);
  EXPECT_THROW(perf::read_record_file(path), ConfigError);  // missing file
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

  const perf::json::Value doc =
      perf::json::parse(profiler.to_json(), "profile");
  EXPECT_EQ(doc.at("schema").as_string(), "basrpt-profile-v1");
  EXPECT_GT(doc.at("window_ns").as_number(), 0.0);
  ASSERT_NE(doc.at("phases").find("candidate_repack"), nullptr);
  EXPECT_DOUBLE_EQ(
      doc.at("phases").at("candidate_repack").at("calls").as_number(), 1.0);
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
