// Unit tests for src/stats: moments, percentiles, time series / trend
// classification, FCT aggregation, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "stats/fct.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"

namespace basrpt::stats {
namespace {

// --------------------------------------------------------------- moments

TEST(StreamingMoments, KnownValues) {
  StreamingMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    m.add(v);
  }
  EXPECT_EQ(m.count(), 8);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_DOUBLE_EQ(m.sum(), 40.0);
}

TEST(StreamingMoments, EmptyIsZeroMeanAndVariance) {
  StreamingMoments m;
  EXPECT_EQ(m.count(), 0);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
}

TEST(StreamingMoments, MergeEqualsSequential) {
  Rng rng(1);
  StreamingMoments whole;
  StreamingMoments a;
  StreamingMoments b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5.0, 20.0);
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StreamingMoments, MergeWithEmptyIsIdentity) {
  StreamingMoments a;
  a.add(3.0);
  StreamingMoments empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

// ------------------------------------------------------------ percentiles

TEST(ExactPercentiles, QuantilesOfKnownSequence) {
  ExactPercentiles p;
  for (int i = 1; i <= 100; ++i) {
    p.add(static_cast<double>(i));
  }
  EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-12);
  EXPECT_NEAR(p.p50(), 50.5, 1e-12);
  EXPECT_NEAR(p.p99(), 99.01, 1e-9);
}

TEST(ExactPercentiles, ExtremeTailsPinToLinearInterpolation) {
  // Pins the p999/p9999 accessors used by the perf harness to the same
  // index = q*(n-1) interpolation rule the rest of the class follows.
  ExactPercentiles p;
  for (int i = 1; i <= 1000; ++i) {
    p.add(static_cast<double>(i));
  }
  EXPECT_NEAR(p.p999(), 999.001, 1e-9);
  EXPECT_NEAR(p.p9999(), 999.9001, 1e-9);
  EXPECT_NEAR(p.quantile(0.999), p.p999(), 1e-12);
}

TEST(ExactPercentiles, InterleavedAddAndQuery) {
  ExactPercentiles p;
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 10.0);
  p.add(20.0);
  p.add(0.0);
  EXPECT_DOUBLE_EQ(p.p50(), 10.0);
}

TEST(P2Quantile, TracksMedianOfUniform) {
  P2Quantile p2(0.5);
  Rng rng(2);
  for (int i = 0; i < 100'000; ++i) {
    p2.add(rng.uniform(0.0, 10.0));
  }
  EXPECT_NEAR(p2.value(), 5.0, 0.2);
}

TEST(P2Quantile, TracksP99OfExponential) {
  P2Quantile p2(0.99);
  ExactPercentiles exact;
  Rng rng(3);
  for (int i = 0; i < 200'000; ++i) {
    const double v = rng.exponential(1.0);
    p2.add(v);
    exact.add(v);
  }
  // Theoretical p99 of Exp(1) is ln(100) ≈ 4.605.
  EXPECT_NEAR(p2.value(), exact.p99(), 0.35);
  EXPECT_NEAR(exact.p99(), std::log(100.0), 0.15);
}

TEST(P2Quantile, ExactForFewerThanFiveSamples) {
  P2Quantile p2(0.5);
  p2.add(3.0);
  p2.add(1.0);
  p2.add(2.0);
  EXPECT_DOUBLE_EQ(p2.value(), 2.0);
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(P2Quantile(0.0), ConfigError);
  EXPECT_THROW(P2Quantile(1.0), ConfigError);
}

// ------------------------------------------------------------- timeseries

TEST(TimeSeries, SlopeOfLinearTrace) {
  TimeSeries ts;
  for (int i = 0; i < 100; ++i) {
    ts.add(SimTime{static_cast<double>(i)}, 3.0 * i + 7.0);
  }
  EXPECT_NEAR(ts.slope(), 3.0, 1e-9);
}

TEST(TimeSeries, SlopeOfFlatTraceIsZero) {
  TimeSeries ts;
  for (int i = 0; i < 50; ++i) {
    ts.add(SimTime{static_cast<double>(i)}, 42.0);
  }
  EXPECT_NEAR(ts.slope(), 0.0, 1e-12);
}

TEST(TimeSeries, WindowAndTailMeans) {
  TimeSeries ts;
  for (int i = 0; i < 100; ++i) {
    ts.add(SimTime{static_cast<double>(i)}, static_cast<double>(i));
  }
  EXPECT_NEAR(ts.window_mean(SimTime{0}, SimTime{9}), 4.5, 1e-9);
  EXPECT_NEAR(ts.tail_mean(0.25), (75.0 + 99.0) / 2.0, 1.0);
}

TEST(TimeSeries, CompactionKeepsCoverage) {
  TimeSeries ts(16);
  for (int i = 0; i < 10'000; ++i) {
    ts.add(SimTime{static_cast<double>(i)}, 2.0 * i);
  }
  EXPECT_LT(ts.size(), 32u);
  EXPECT_GT(ts.size(), 4u);
  // Slope survives compaction.
  EXPECT_NEAR(ts.slope(), 2.0, 1e-6);
  // Coverage spans the whole trace.
  EXPECT_LT(ts.points().front().t, 2000.0);
  EXPECT_GT(ts.points().back().t, 8000.0);
}

TEST(TimeSeries, RejectsTimeGoingBackwards) {
  TimeSeries ts;
  ts.add(SimTime{1.0}, 0.0);
  EXPECT_THROW(ts.add(SimTime{0.5}, 0.0), SimulationError);
}

TEST(ClassifyTrend, DetectsLinearGrowth) {
  TimeSeries ts;
  for (int i = 0; i < 200; ++i) {
    ts.add(SimTime{static_cast<double>(i)}, 10.0 * i);
  }
  const TrendVerdict v = classify_trend(ts);
  EXPECT_TRUE(v.growing);
  EXPECT_GT(v.slope, 0.0);
  EXPECT_GT(v.growth_ratio, 1.5);
}

TEST(ClassifyTrend, StablePlateauWithNoiseIsNotGrowing) {
  TimeSeries ts;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    ts.add(SimTime{static_cast<double>(i)}, 1000.0 + rng.uniform(-50, 50));
  }
  EXPECT_FALSE(classify_trend(ts).growing);
}

TEST(ClassifyTrend, RampThenPlateauIsNotGrowing) {
  // A queue that fills and then stabilizes (BASRPT's signature) must not
  // be classified unstable by the early ramp.
  TimeSeries ts;
  for (int i = 0; i < 500; ++i) {
    ts.add(SimTime{static_cast<double>(i)}, std::min(1000.0, 20.0 * i));
  }
  EXPECT_FALSE(classify_trend(ts).growing);
}

TEST(ClassifyTrend, TooFewSamplesIsNeutral) {
  TimeSeries ts;
  ts.add(SimTime{0.0}, 0.0);
  ts.add(SimTime{1.0}, 100.0);
  EXPECT_FALSE(classify_trend(ts).growing);
}

// -------------------------------------------------------------------- fct

TEST(FctAggregator, PerClassSummaries) {
  FctAggregator agg;
  for (int i = 1; i <= 100; ++i) {
    agg.record(FlowClass::kQuery, milliseconds(static_cast<double>(i)),
               20_KB);
  }
  agg.record(FlowClass::kBackground, seconds(1.0), 5_MB);
  const FctSummary q = agg.summary(FlowClass::kQuery);
  EXPECT_EQ(q.completed, 100);
  EXPECT_NEAR(q.mean_seconds, 0.0505, 1e-9);
  EXPECT_NEAR(q.p99_seconds, 0.09901, 1e-6);
  EXPECT_NEAR(q.max_seconds, 0.1, 1e-12);
  const FctSummary b = agg.summary(FlowClass::kBackground);
  EXPECT_EQ(b.completed, 1);
  EXPECT_DOUBLE_EQ(b.mean_seconds, 1.0);
  EXPECT_EQ(agg.completed_total(), 101);
  EXPECT_EQ(agg.bytes_completed(), 20_KB * 100 + 5_MB);
}

TEST(FctAggregator, EmptyClassYieldsZeroSummary) {
  FctAggregator agg;
  const FctSummary s = agg.summary(FlowClass::kQuery);
  EXPECT_EQ(s.completed, 0);
  EXPECT_DOUBLE_EQ(s.mean_seconds, 0.0);
}

TEST(FctAggregator, SlowdownTracksIdealRatio) {
  FctAggregator agg;
  // FCT 2 ms against an ideal of 1 ms: slowdown 2; and one at 4x.
  agg.record_with_ideal(FlowClass::kQuery, milliseconds(2.0), 20_KB,
                        milliseconds(1.0));
  agg.record_with_ideal(FlowClass::kQuery, milliseconds(8.0), 20_KB,
                        milliseconds(2.0));
  const FctSummary s = agg.summary(FlowClass::kQuery);
  EXPECT_EQ(s.completed, 2);
  EXPECT_DOUBLE_EQ(s.mean_slowdown, 3.0);
  EXPECT_NEAR(s.p99_slowdown, 4.0, 0.05);
}

TEST(FctAggregator, SlowdownZeroWithoutIdeals) {
  FctAggregator agg;
  agg.record(FlowClass::kQuery, milliseconds(2.0), 20_KB);
  EXPECT_DOUBLE_EQ(agg.summary(FlowClass::kQuery).mean_slowdown, 0.0);
}

TEST(ThroughputMeter, AverageRate) {
  ThroughputMeter meter;
  meter.deliver(125_MB);  // 1 Gbit
  EXPECT_NEAR(meter.average_rate(seconds(1.0)).bits_per_sec, 1e9, 1.0);
  EXPECT_NEAR(meter.average_rate(seconds(2.0)).bits_per_sec, 5e8, 1.0);
}

// ------------------------------------------------------------------ table

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table t({"scheme", "avg", "p99"});
  t.add_row({"srpt", cell(1.5), cell(9.25)});
  t.add_row({"fast-basrpt", cell(2.0), cell(30.0)});
  const std::string pretty = t.render();
  EXPECT_NE(pretty.find("scheme"), std::string::npos);
  EXPECT_NE(pretty.find("fast-basrpt"), std::string::npos);
  const std::string csv = t.render_csv();
  EXPECT_NE(csv.find("srpt,1.500,9.250"), std::string::npos);
}

TEST(Table, RowWidthMismatchAsserts) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), SimulationError);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(3.14159, 2), "3.14");
  EXPECT_EQ(cell(static_cast<std::int64_t>(42)), "42");
}

}  // namespace
}  // namespace basrpt::stats
