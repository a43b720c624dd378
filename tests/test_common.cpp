// Unit tests for src/common: units, assertions, RNG, CLI parsing, JSON
// string escaping.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/json_escape.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace basrpt {
namespace {

// ----------------------------------------------------------------- units

TEST(Units, ByteLiteralsScaleDecimally) {
  EXPECT_EQ((1_KB).count, 1000);
  EXPECT_EQ((20_KB).count, 20'000);
  EXPECT_EQ((1_MB).count, 1'000'000);
  EXPECT_EQ((50_MB).count, 50'000'000);
  EXPECT_EQ((2_GB).count, 2'000'000'000);
}

TEST(Units, BytesArithmetic) {
  Bytes a = 10_KB;
  a += 5_KB;
  EXPECT_EQ(a, 15_KB);
  a -= 5_KB;
  EXPECT_EQ(a, 10_KB);
  EXPECT_EQ(a * 3, 30_KB);
  EXPECT_DOUBLE_EQ(30_KB / a, 3.0);
}

TEST(Units, RateHelpers) {
  EXPECT_DOUBLE_EQ(gbps(10.0).bits_per_sec, 1e10);
  EXPECT_DOUBLE_EQ(mbps(5.0).bits_per_sec, 5e6);
  EXPECT_DOUBLE_EQ(gbps(40.0) / gbps(10.0), 4.0);
}

TEST(Units, TransmissionTimeOfPacketAt10G) {
  // 1500 B at 10 Gbps = 1.2 microseconds — the paper's slot granularity.
  const SimTime t = transmission_time(Bytes{1500}, gbps(10.0));
  EXPECT_NEAR(t.seconds, 1.2e-6, 1e-12);
}

TEST(Units, BytesInInvertsTransmissionTime) {
  const Bytes size = 7_MB;
  const Rate rate = gbps(10.0);
  const SimTime t = transmission_time(size, rate);
  EXPECT_NEAR(static_cast<double>(bytes_in(rate, t).count),
              static_cast<double>(size.count), 2.0);
}

TEST(Units, ToStringPicksSensibleScale) {
  EXPECT_EQ(to_string(1500_KB), "1.5 MB");
  EXPECT_EQ(to_string(gbps(9.2)), "9.2 Gbps");
  EXPECT_EQ(to_string(milliseconds(12.0)), "12 ms");
}

// ------------------------------------------------------------- assertions

TEST(Assert, ViolationThrowsSimulationError) {
  EXPECT_THROW(BASRPT_ASSERT(1 == 2, "impossible"), SimulationError);
}

TEST(Assert, RequireThrowsConfigError) {
  EXPECT_THROW(BASRPT_REQUIRE(false, "bad config"), ConfigError);
}

TEST(Assert, PassingChecksAreSilent) {
  EXPECT_NO_THROW(BASRPT_ASSERT(true, ""));
  EXPECT_NO_THROW(BASRPT_REQUIRE(true, ""));
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a() == b()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRangeAndRoughlyUniform) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    ASSERT_GE(v, 5);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(rate);
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentAndReproducible) {
  Rng base(99);
  Rng s1 = base.split(1);
  Rng s2 = base.split(2);
  Rng s1_again = base.split(1);
  EXPECT_NE(s1(), s2());
  Rng s1_replay = Rng(99).split(1);
  // Same label, same parent seed → identical stream.
  EXPECT_EQ(s1_again(), s1_replay());
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(5);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// -------------------------------------------------------------------- cli

TEST(Cli, ParsesTypedOptions) {
  CliParser cli("prog", "test");
  cli.flag("full", false, "run at paper scale")
      .integer("hosts", 24, "host count")
      .real("load", 0.95, "per-host load")
      .text("sched", "srpt", "policy");
  const char* argv[] = {"prog", "--full", "--hosts=48", "--load", "0.5",
                        "--sched=fast-basrpt"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_TRUE(cli.get_flag("full"));
  EXPECT_EQ(cli.get_integer("hosts"), 48);
  EXPECT_DOUBLE_EQ(cli.get_real("load"), 0.5);
  EXPECT_EQ(cli.get_text("sched"), "fast-basrpt");
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count").flag("full", true, "full scale");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_integer("hosts"), 24);
  EXPECT_TRUE(cli.get_flag("full"));
}

TEST(Cli, NoPrefixNegatesFlag) {
  CliParser cli("prog", "test");
  cli.flag("full", true, "full scale");
  const char* argv[] = {"prog", "--no-full"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_FALSE(cli.get_flag("full"));
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--hots=3"};
  EXPECT_THROW(cli.parse(2, argv), ConfigError);
}

TEST(Cli, MalformedNumberThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count").real("load", 0.5, "load");
  const char* argv1[] = {"prog", "--hosts=abc"};
  EXPECT_THROW(cli.parse(2, argv1), ConfigError);
  const char* argv2[] = {"prog", "--load=1.2.3"};
  EXPECT_THROW(cli.parse(2, argv2), ConfigError);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--hosts"};
  EXPECT_THROW(cli.parse(2, argv), ConfigError);
}

TEST(Cli, PositionalArgumentsRejected) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(cli.parse(2, argv), ConfigError);
}

TEST(Cli, UnknownOptionErrorNamesTheOptionAndPointsAtHelp) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--hots=3"};
  try {
    cli.parse(2, argv);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--hots"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--help"), std::string::npos);
  }
}

TEST(Cli, DuplicateOptionOnCommandLineThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--hosts=3", "--hosts=5"};
  try {
    cli.parse(3, argv);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--hosts"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("more than once"),
              std::string::npos);
  }
}

TEST(Cli, DuplicateFlagMixedFormsThrows) {
  CliParser cli("prog", "test");
  cli.flag("full", false, "full scale");
  const char* argv[] = {"prog", "--full", "--no-full"};
  EXPECT_THROW(cli.parse(3, argv), ConfigError);
}

TEST(Cli, DuplicateRegistrationThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  EXPECT_THROW(cli.real("hosts", 1.0, "collides"), ConfigError);
}

TEST(Cli, OverflowingNumberIsAConfigErrorNotACrash) {
  // stoll/stod throw std::out_of_range (not logic_error) on overflow;
  // the parser must translate it instead of letting it escape.
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count").real("load", 0.5, "load");
  const char* argv1[] = {"prog", "--hosts=99999999999999999999"};
  EXPECT_THROW(cli.parse(2, argv1), ConfigError);
  const char* argv2[] = {"prog", "--load=1e999"};
  EXPECT_THROW(cli.parse(2, argv2), ConfigError);
}

TEST(Cli, HelpReturnsFalseAndPrintsOptions) {
  CliParser cli("prog", "demo description");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.usage().find("hosts"), std::string::npos);
  EXPECT_NE(cli.usage().find("demo description"), std::string::npos);
}

TEST(JsonEscape, EscapesSpecialsAndControlCharacters) {
  EXPECT_EQ(json_escape("sched.decision_ns"), "sched.decision_ns");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("l1\nl2\tx\ry"), "l1\\nl2\\tx\\ry");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes
  EXPECT_EQ(json_escape(""), "");
}

}  // namespace
}  // namespace basrpt
