// Unit tests for src/obs: metrics registry, log-scale histogram,
// ScopedTimer arming, flow tracer + Chrome JSON well-formedness,
// heartbeat pacing, and the metrics exporters.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/metrics_json.hpp"

namespace basrpt {
namespace {

// Minimal recursive-descent JSON syntax checker — enough to catch the
// exporter bugs that matter (unbalanced braces, trailing commas, bare
// NaN/inf, unterminated strings) without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : text_(std::move(text)) {}

  bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string word(lit);
    if (text_.compare(pos_, word.size(), word) != 0) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e4],"b":{"c":"x\"y"},"d":null})")
                  .valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":nan})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1)").valid());
}

TEST(Counter, AddAndReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Gauge, TracksValueAndPeak) {
  obs::Gauge g;
  g.set(5.0);
  g.set(9.0);
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
  // A first write below zero must still become the peak.
  obs::Gauge neg;
  neg.set(-2.0);
  EXPECT_DOUBLE_EQ(neg.max(), -2.0);
}

TEST(LatencyHistogram, PowerOfTwoBucketEdges) {
  using H = obs::LatencyHistogram;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 0u);
  EXPECT_EQ(H::bucket_of(2), 1u);
  EXPECT_EQ(H::bucket_of(3), 1u);
  EXPECT_EQ(H::bucket_of(4), 2u);
  EXPECT_EQ(H::bucket_of(1023), 9u);
  EXPECT_EQ(H::bucket_of(1024), 10u);
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), 63u);
  EXPECT_EQ(H::bucket_lower(0), 0u);
  EXPECT_EQ(H::bucket_lower(1), 2u);
  EXPECT_EQ(H::bucket_lower(10), 1024u);
}

TEST(LatencyHistogram, SummaryStatistics) {
  obs::LatencyHistogram h;
  for (const std::uint64_t v : {10u, 20u, 30u, 1000u}) {
    h.add(v);
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1060u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 265.0);
  EXPECT_EQ(h.bucket_count(obs::LatencyHistogram::bucket_of(10)), 1u);
  EXPECT_EQ(h.bucket_count(obs::LatencyHistogram::bucket_of(20)), 2u);
}

TEST(LatencyHistogram, QuantilesClampedToObservedRange) {
  obs::LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  for (std::uint64_t v = 1; v <= 100; ++v) {
    h.add(v);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 100.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 100.0);
}

TEST(Registry, ReturnsStableReferencesAndResets) {
  obs::Registry registry;
  EXPECT_TRUE(registry.empty());
  obs::Counter& a = registry.counter("a");
  a.add(7);
  registry.counter("zzz");  // must not invalidate `a`
  registry.gauge("g").set(1.5);
  registry.histogram("h").add(3);
  EXPECT_EQ(&registry.counter("a"), &a);
  EXPECT_EQ(registry.counter("a").value(), 7);
  EXPECT_FALSE(registry.empty());
  registry.reset();
  EXPECT_TRUE(registry.empty());
}

TEST(ScopedTimer, ArmsOnlyWhenEnabled) {
  const bool was_enabled = obs::enabled();
  obs::LatencyHistogram h;
  obs::set_enabled(false);
  { obs::ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 0u);
  obs::set_enabled(true);
  { obs::ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
  obs::set_enabled(was_enabled);
}

TEST(FlowTracer, FirstServiceDeduplicated) {
  obs::FlowTracer tracer;
  tracer.on_arrival(1, 0, 1, 0.0, 100.0);
  tracer.on_service(1, 0, 1, 0.1, 100.0, 100.0);
  tracer.on_preemption(1, 0, 1, 0.2, 100.0, 60.0);
  tracer.on_service(1, 0, 1, 0.3, 100.0, 60.0);  // resumption, not first
  tracer.on_completion(1, 0, 1, 0.5, 100.0);
  ASSERT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.records()[1].event, obs::FlowEvent::kFirstService);
  EXPECT_EQ(tracer.records()[2].event, obs::FlowEvent::kPreemption);
  EXPECT_EQ(tracer.records()[3].event, obs::FlowEvent::kCompletion);
  tracer.clear();
  EXPECT_TRUE(tracer.empty());
  // clear() also forgets first-service state.
  tracer.on_service(1, 0, 1, 1.0, 100.0, 50.0);
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.records()[0].event, obs::FlowEvent::kFirstService);
}

TEST(FlowTracer, BeginRunRescopesFlowIds) {
  obs::FlowTracer tracer;
  tracer.begin_run();
  tracer.on_service(0, 0, 1, 0.5, 10.0, 10.0);
  tracer.begin_run();
  // Run 2 reuses flow id 0; it must get its own first-service event.
  tracer.on_service(0, 0, 1, 0.5, 10.0, 10.0);
  ASSERT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.records()[0].run, 1);
  EXPECT_EQ(tracer.records()[1].run, 2);
  EXPECT_EQ(tracer.records()[1].event, obs::FlowEvent::kFirstService);
}

TEST(FlowTracer, ChromeJsonIsWellFormed) {
  obs::FlowTracer tracer;
  tracer.on_arrival(1, 0, 1, 0.0, 100.0);
  tracer.on_arrival(2, 2, 1, 0.001, 5.0);
  tracer.on_service(1, 0, 1, 0.002, 100.0, 100.0);
  tracer.on_preemption(1, 0, 1, 0.003, 100.0, 80.0);
  tracer.on_service(2, 2, 1, 0.003, 5.0, 5.0);
  tracer.on_completion(2, 2, 1, 0.004, 5.0);
  tracer.on_completion(1, 0, 1, 0.010, 100.0);

  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(FlowTracer, JsonlOneValidObjectPerLine) {
  obs::FlowTracer tracer;
  tracer.on_arrival(7, 3, 4, 1.5, 200.0);
  tracer.on_completion(7, 3, 4, 2.5, 200.0);
  std::ostringstream out;
  tracer.write_jsonl(out);
  std::istringstream lines(out.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++n;
  }
  EXPECT_EQ(n, 2);
  EXPECT_NE(out.str().find("\"arrival\""), std::string::npos);
  EXPECT_NE(out.str().find("\"completion\""), std::string::npos);
}

TEST(Heartbeat, BeatsWithCustomReporterAndFlush) {
  obs::Heartbeat hb;
  std::vector<obs::HeartbeatStatus> beats;
  hb.configure(1e-9, [&](const obs::HeartbeatStatus& s) {
    beats.push_back(s);
  });
  ASSERT_TRUE(hb.active());
  // First clock read only establishes the start; the second fires a beat
  // (any positive wall elapsed exceeds the 1 ns interval).
  for (std::uint64_t i = 0; i < 2 * obs::Heartbeat::kCheckEvery; ++i) {
    hb.tick(static_cast<double>(i), i);
  }
  ASSERT_GE(hb.beats(), 1u);
  ASSERT_FALSE(beats.empty());
  EXPECT_EQ(beats.front().beats, 1u);
  EXPECT_GT(beats.front().events, 0u);
  const std::uint64_t before = hb.beats();
  hb.flush(4096.0, 4096);
  EXPECT_GE(hb.beats(), before);
}

TEST(Heartbeat, InactiveByDefault) {
  obs::Heartbeat hb;
  EXPECT_FALSE(hb.active());
  for (std::uint64_t i = 0; i < 4 * obs::Heartbeat::kCheckEvery; ++i) {
    hb.tick(static_cast<double>(i), i);
  }
  hb.flush(1.0, 1);
  EXPECT_EQ(hb.beats(), 0u);
}

TEST(MetricsExport, JsonIsWellFormedAndComplete) {
  obs::Registry registry;
  registry.counter("sim.events_executed").add(123);
  registry.gauge("sim.calendar_depth").set(17.0);
  auto& h = registry.histogram("sched.decision_ns");
  h.add(100);
  h.add(3000);

  std::ostringstream out;
  report::write_metrics_json(out, registry);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"sim.events_executed\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.calendar_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"sched.decision_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(MetricsExport, CsvHasOneFieldPerRow) {
  obs::Registry registry;
  registry.counter("c").add(5);
  registry.histogram("h").add(42);
  std::ostringstream out;
  report::write_metrics_csv(out, registry);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,c,value,5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,count,1"), std::string::npos);
}

TEST(Logger, SinkCapturesAboveThreshold) {
  const LogLevel old_level = log_level();
  std::vector<std::pair<LogLevel, std::string>> captured;
  LogSink previous = set_log_sink(
      [&](LogLevel level, const std::string& msg) {
        captured.emplace_back(level, msg);
      });
  set_log_level(LogLevel::kInfo);
  BASRPT_LOG(kDebug) << "dropped";
  BASRPT_LOG(kInfo) << "kept " << 42;
  BASRPT_LOG(kError) << "also kept";
  set_log_sink(std::move(previous));
  set_log_level(old_level);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].second, "kept 42");
  EXPECT_EQ(captured[1].first, LogLevel::kError);
}

TEST(Logger, ParseLevelNamesAndFallback) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warning", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error", LogLevel::kWarn), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off", LogLevel::kWarn), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("none", LogLevel::kWarn), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("banana", LogLevel::kInfo), LogLevel::kInfo);
}

}  // namespace
}  // namespace basrpt
