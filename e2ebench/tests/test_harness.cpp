// Tests of the benchmark's own arithmetic and of the paper144
// composition.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"
#include "sched/factory.hpp"

namespace e2ebench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // descending: the rule must sort
  }
  return v;
}

TEST(Percentile, NearestRankWithSamplesBeyond) {
  const Percentile p50 = percentile(one_to(100), 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.n, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_TRUE(p50.ok);

  const Percentile p90 = percentile(one_to(100), 0.90);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.ok);  // exactly ten beyond is enough
}

TEST(Percentile, RefusesFewerThanTenBeyond) {
  const Percentile p99 = percentile(one_to(100), 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_FALSE(p99.ok);

  const Percentile p99k = percentile(one_to(1000), 0.99);
  EXPECT_EQ(p99k.value, 990.0);
  EXPECT_EQ(p99k.beyond, 10u);
  EXPECT_TRUE(p99k.ok);

  EXPECT_FALSE(percentile({}, 0.5).ok);
}

TEST(Percentile, TiesAreNotBeyond) {
  std::vector<double> v(50, 7.0);
  v.push_back(8.0);
  const Percentile p = percentile(v, 0.5);
  EXPECT_EQ(p.value, 7.0);
  EXPECT_EQ(p.beyond, 1u);  // only the strictly greater sample
  EXPECT_FALSE(p.ok);
}

TEST(LogHistogram, AgreesWithExactRuleWithinResolution) {
  LogHistogram h;
  std::vector<double> exact;
  for (std::uint64_t v = 1; v <= 20000; ++v) {
    const std::uint64_t x = (v * 7919) % 100000 + 1;
    h.add(x);
    exact.push_back(static_cast<double>(x));
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    const Percentile a = h.percentile(q);
    const Percentile b = percentile(exact, q);
    EXPECT_EQ(a.n, b.n);
    EXPECT_NEAR(a.value, b.value, b.value * 0.02) << q;
    // Samples sharing the bucket of the percentile are not counted
    // beyond it, so the histogram's count can only be lower.
    EXPECT_LE(a.beyond, b.beyond);
    EXPECT_GE(a.beyond + b.n / 50, b.beyond);
  }
}

TEST(LogHistogram, SmallValuesAreExactAndRuleApplies) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 40; ++v) {
    h.add(v);
  }
  const Percentile p = h.percentile(0.5);
  EXPECT_EQ(p.value, 20.0);  // width-1 buckets below 64
  EXPECT_EQ(p.beyond, 20u);
  EXPECT_TRUE(p.ok);
  EXPECT_FALSE(h.percentile(0.9).ok);  // 36 with 4 beyond
  EXPECT_EQ(h.percentile(0.9).beyond, 4u);
}

TEST(LogHistogram, BucketsCoverTheirValues) {
  for (const std::uint64_t v :
       {0ull, 1ull, 63ull, 64ull, 65ull, 127ull, 128ull, 1000ull,
        123456789ull, (1ull << 40) + 12345}) {
    const std::size_t i = LogHistogram::index_of(v);
    EXPECT_LE(LogHistogram::lower_bound_of(i), v);
    EXPECT_GT(LogHistogram::lower_bound_of(i) + LogHistogram::width_of(i), v);
  }
}

TEST(SelfTime, SubtractsChildrenAndFloorsAtZero) {
  EXPECT_EQ(self_time(100, 30), 70u);
  EXPECT_EQ(self_time(100, 100), 0u);
  EXPECT_EQ(self_time(100, 130), 0u);
}

TEST(SelfTime, SchedSelfIsDecideMinusNestedScoreAndSort) {
  // The harness's sched self time: decide-boundary total minus the
  // score-kernel and match-sort totals nested inside it.
  const std::uint64_t decide_total = 1000;
  const std::uint64_t score_total = 100;
  const std::uint64_t sort_total = 300;
  EXPECT_EQ(self_time(decide_total, score_total + sort_total), 600u);
  // A scheduler with no scoring kernel (SRPT) keeps everything but sort.
  EXPECT_EQ(self_time(decide_total, 0 + sort_total), 700u);
}

TEST(Digest, SeesOrderBitsAndLength) {
  EXPECT_EQ(Digest().value(), 0xcbf29ce484222325ull);  // FNV-1a offset

  Digest ab, a_b;
  ab.add_str("ab");
  a_b.add_str("a").add_str("b");
  EXPECT_NE(ab.value(), a_b.value());  // lengths delimit fields

  Digest x, y;
  x.add_i64(1).add_i64(2);
  y.add_i64(2).add_i64(1);
  EXPECT_NE(x.value(), y.value());

  Digest z1, z2;
  z1.add_f64(0.0);
  z2.add_f64(-0.0);
  EXPECT_NE(z1.value(), z2.value());  // bit patterns, not values

  EXPECT_EQ(hex64(0x0123456789abcdefull), "0123456789abcdef");
}

TEST(Digest, KnownVector) {
  // FNV-1a 64 of the eight little-endian bytes of 0 is a fixed value;
  // pinned digests depend on this encoding never changing.
  Digest d;
  d.add_u64(0);
  EXPECT_EQ(hex64(d.value()), "a8c7f832281a39c5");
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Paper144, CompositionMatchesRunExperiment) {
  // paper144 forwards run_experiment's own pieces through decorators;
  // on a short horizon both paths must give bit-identical outputs.
  basrpt::core::ExperimentConfig c = paper144_config(3);
  c.horizon = basrpt::seconds(0.004);
  const basrpt::core::ExperimentResult direct = basrpt::core::run_experiment(c);
  auto s = basrpt::sched::make_scheduler(c.scheduler);
  auto traffic = experiment_traffic(c);
  const auto composed =
      basrpt::flowsim::run_flow_sim(experiment_sim_config(c), *s, *traffic);
  EXPECT_GT(composed.flows_completed, 0);
  EXPECT_EQ(digest_flowsim(composed), digest_flowsim(direct.raw));
}

}  // namespace
}  // namespace e2ebench
