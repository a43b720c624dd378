// Model-based fuzz suites: randomized operation sequences checked
// against naive reference implementations, plus cross-scheduler
// conservation sweeps on the flow-level simulator.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "ckpt/slotted_state.hpp"
#include "ckpt/snapshot.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "flowsim/flow_sim.hpp"
#include "queueing/voq.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "srv/connection.hpp"
#include "srv/feed.hpp"
#include "srv/wire.hpp"
#include "switchsim/arrivals.hpp"
#include "switchsim/slotted_sim.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace basrpt {
namespace {

using queueing::Flow;
using queueing::FlowId;
using queueing::PortId;
using queueing::VoqMatrix;

// ------------------------------------------------- VoqMatrix vs reference

/// Naive reference model: a plain map of flows, recomputing every
/// aggregate from scratch.
struct ReferenceModel {
  std::map<FlowId, Flow> flows;

  Bytes backlog(PortId i, PortId j) const {
    Bytes total{};
    for (const auto& [id, f] : flows) {
      if (f.src == i && f.dst == j) {
        total += f.remaining;
      }
    }
    return total;
  }
  Bytes ingress_backlog(PortId i) const {
    Bytes total{};
    for (const auto& [id, f] : flows) {
      if (f.src == i) {
        total += f.remaining;
      }
    }
    return total;
  }
  FlowId shortest_in_voq(PortId i, PortId j) const {
    FlowId best = queueing::kInvalidFlow;
    for (const auto& [id, f] : flows) {
      if (f.src != i || f.dst != j) {
        continue;
      }
      if (best == queueing::kInvalidFlow ||
          f.remaining < flows.at(best).remaining ||
          (f.remaining == flows.at(best).remaining && id < best)) {
        best = id;
      }
    }
    return best;
  }
};

class VoqFuzz : public ::testing::TestWithParam<int> {};

TEST_P(VoqFuzz, MatchesReferenceModelUnderRandomOps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const PortId n = 4;
  VoqMatrix voqs(n);
  ReferenceModel model;
  FlowId next_id = 0;

  for (int step = 0; step < 3000; ++step) {
    const double op = rng.uniform01();
    if (op < 0.45 || model.flows.empty()) {
      // Add a flow.
      Flow f;
      f.id = next_id++;
      f.src = static_cast<PortId>(rng.uniform_int(0, n - 1));
      f.dst = static_cast<PortId>(rng.uniform_int(0, n - 1));
      f.size = Bytes{rng.uniform_int(1, 5000)};
      f.remaining = f.size;
      f.arrival = SimTime{static_cast<double>(step)};
      voqs.add_flow(f);
      model.flows.emplace(f.id, f);
    } else if (op < 0.85) {
      // Drain a random existing flow by a random amount.
      auto it = model.flows.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(
                                  model.flows.size()) - 1));
      const FlowId id = it->first;
      const Bytes amount{rng.uniform_int(0, 6000)};
      const bool completed = voqs.drain(id, amount);
      Flow& f = it->second;
      const Bytes drained =
          amount.count >= f.remaining.count ? f.remaining : amount;
      f.remaining -= drained;
      EXPECT_EQ(completed, f.remaining.count == 0);
      if (f.remaining.count == 0) {
        model.flows.erase(it);
      }
    } else {
      // Remove a random flow outright.
      auto it = model.flows.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(
                                  model.flows.size()) - 1));
      voqs.remove(it->first);
      model.flows.erase(it);
    }

    // Cross-check aggregates every few steps (full check is O(n^2)).
    if (step % 50 == 0) {
      ASSERT_EQ(voqs.active_flows(), model.flows.size());
      Bytes total{};
      for (const auto& [id, f] : model.flows) {
        total += f.remaining;
      }
      ASSERT_EQ(voqs.total_backlog(), total);
      for (PortId i = 0; i < n; ++i) {
        ASSERT_EQ(voqs.ingress_backlog(i), model.ingress_backlog(i));
        for (PortId j = 0; j < n; ++j) {
          ASSERT_EQ(voqs.backlog(i, j), model.backlog(i, j));
          ASSERT_EQ(voqs.shortest_in_voq(i, j), model.shortest_in_voq(i, j))
              << "VOQ " << i << "," << j << " at step " << step;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoqFuzz, ::testing::Range(0, 6));

// ------------------------------------------- candidate-lane mutation

/// Lane-length drift fuzz: CandidateSoA lanes are public (builders write
/// them in place), so a buggy builder can leave lanes of unequal length.
/// view() is the validation chokepoint — every mutation must surface as
/// ConfigError there, and nothing else may escape.
class CandidateLaneFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CandidateLaneFuzz, MismatchedLanesNeverEscapeConfigError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9173 + 7);
  const PortId n = 6;

  for (int round = 0; round < 200; ++round) {
    VoqMatrix voqs(n);
    const int n_flows = static_cast<int>(rng.uniform_int(1, 40));
    for (FlowId id = 0; id < n_flows; ++id) {
      Flow f;
      f.id = id;
      f.src = static_cast<PortId>(rng.uniform_int(0, n - 1));
      auto dst = static_cast<PortId>(rng.uniform_int(0, n - 2));
      f.dst = dst >= f.src ? dst + 1 : dst;
      f.size = Bytes{rng.uniform_int(1, 500)};
      f.remaining = f.size;
      f.arrival = SimTime{rng.uniform01()};
      voqs.add_flow(f);
    }
    const bool with_arrival = rng.bernoulli(0.5);
    sched::CandidateSoA soa;
    soa.assign_from_aos(sched::build_candidates(voqs, 1.0, with_arrival),
                        with_arrival);
    ASSERT_NO_THROW(soa.view());

    // Mutate one present lane's length (grow or shrink by 1..3).
    const int which = static_cast<int>(rng.uniform_int(0, 6));
    const auto delta = rng.uniform_int(1, 3);
    const bool grow = rng.bernoulli(0.5);
    const auto resize = [&](auto& lane) {
      const auto target =
          grow ? lane.size() + static_cast<std::size_t>(delta)
               : lane.size() - std::min(lane.size(),
                                        static_cast<std::size_t>(delta));
      lane.resize(target);
      return lane.size();
    };
    std::size_t mutated_len = 0;
    switch (which) {
      case 0: mutated_len = resize(soa.ingress); break;
      case 1: mutated_len = resize(soa.egress); break;
      case 2: mutated_len = resize(soa.backlog); break;
      case 3: mutated_len = resize(soa.flow_count); break;
      case 4: mutated_len = resize(soa.shortest_flow); break;
      case 5: mutated_len = resize(soa.shortest_remaining); break;
      default: mutated_len = resize(soa.shortest_arrival); break;
    }
    if (mutated_len == soa.ingress.size() &&
        mutated_len == soa.backlog.size()) {
      continue;  // shrink clamped to the original length: still valid
    }
    try {
      (void)soa.view();
      FAIL() << "mismatched lanes accepted in round " << round;
    } catch (const ConfigError&) {
      // Expected. Any other exception type propagates and fails.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateLaneFuzz, ::testing::Range(0, 4));

// ------------------------------------------------------ engine ordering

class EngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzz, RandomSchedulesExecuteInOrder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  sim::Engine engine;
  std::vector<double> fired;
  // Seed events; some handlers schedule follow-ups.
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    engine.schedule_at(SimTime{t}, [&engine, &fired, &rng]() {
      fired.push_back(engine.now().seconds);
      if (rng.bernoulli(0.3)) {
        engine.schedule_in(SimTime{rng.uniform(0.0, 10.0)},
                           [&engine, &fired]() {
                             fired.push_back(engine.now().seconds);
                           });
      }
    });
  }
  engine.run_until(SimTime{200.0});
  ASSERT_GE(fired.size(), 200u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]) << "events fired out of order";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range(0, 5));

// --------------------------------------- conservation across schedulers

class FlowSimConservation
    : public ::testing::TestWithParam<sched::Policy> {};

TEST_P(FlowSimConservation, OfferedBytesAreDeliveredOrQueued) {
  sched::SchedulerSpec spec;
  spec.policy = GetParam();
  spec.v = 400.0;
  spec.threshold_packets = 1000.0;
  spec.rounds = 4;
  auto scheduler = sched::make_scheduler(spec);

  flowsim::FlowSimConfig config;
  config.fabric = topo::small_fabric(2, 4, 2);
  config.horizon = seconds(0.25);
  config.paranoid = true;

  Rng rng(31);
  auto traffic = workload::paper_mix(0.85, 0.15, 2, 4, gbps(10.0),
                                     seconds(0.25), rng);
  const auto result = run_flow_sim(config, *scheduler, *traffic);
  EXPECT_EQ(result.delivered + result.bytes_left, result.bytes_arrived)
      << sched::to_string(spec.policy);
  EXPECT_EQ(result.flows_arrived,
            result.flows_completed + result.flows_left);
  EXPECT_GT(result.flows_completed, 0);
  // No scheduler can deliver more than the fabric line rate allows.
  EXPECT_LE(result.throughput().bits_per_sec, 8 * 1e10);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FlowSimConservation,
    ::testing::Values(sched::Policy::kSrpt, sched::Policy::kFastBasrpt,
                      sched::Policy::kThresholdSrpt,
                      sched::Policy::kMaxWeight, sched::Policy::kFifo,
                      sched::Policy::kDistBasrpt),
    [](const ::testing::TestParamInfo<sched::Policy>& info) {
      std::string name = sched::to_string(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// ---------------------------------------------------- governor property

class GovernorFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GovernorFuzz, BudgetsNeverExceeded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const std::int32_t ports = 6;
  const double cap = 0.8;
  const Bytes slack = 5_MB;
  workload::LoadGovernor governor(ports, gbps(10.0), cap, slack);

  double t = 0.0;
  for (int step = 0; step < 5000; ++step) {
    t += rng.exponential(5000.0);
    const auto src = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    const auto dst = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    const Bytes size{rng.uniform_int(1000, 2'000'000)};
    if (governor.would_admit(src, dst, size, SimTime{t})) {
      governor.commit(src, dst, size);
    }
    if (step % 500 == 0) {
      const double budget =
          cap * 1.25e9 * t + static_cast<double>(slack.count);
      for (PortId p = 0; p < ports; ++p) {
        ASSERT_LE(static_cast<double>(governor.offered_ingress(p).count),
                  budget + 1.0);
        ASSERT_LE(static_cast<double>(governor.offered_egress(p).count),
                  budget + 1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GovernorFuzz, ::testing::Range(0, 4));

// ------------------------------------------- line-oriented parser fuzz

/// Renders a valid fault plan, then applies seeded byte-level mutations
/// (corrupt, delete, duplicate, truncate). The parser must either
/// produce a plan or throw ConfigError/ParseError — nothing else
/// escapes, and accepted plans must re-serialize cleanly.
class FaultPlanFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultPlanFuzz, MutatedInputNeverEscapesConfigError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  fault::RandomFaultSpec spec;
  spec.ports = 8;
  spec.horizon = 4.0;
  const fault::FaultPlan seed_plan =
      fault::FaultPlan::randomized(spec, static_cast<std::uint64_t>(
                                             GetParam() + 1));
  std::ostringstream rendered;
  seed_plan.write(rendered);
  const std::string pristine = rendered.str();

  for (int round = 0; round < 400; ++round) {
    std::string text = pristine;
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:  // corrupt one byte (printable, so lines stay lines)
          text[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:  // delete one byte
          text.erase(pos, 1);
          break;
        case 2:  // duplicate a span
          text.insert(pos, text.substr(
                               pos, static_cast<std::size_t>(
                                        rng.uniform_int(1, 8))));
          break;
        default:  // truncate (models a partial write)
          text.resize(pos);
          break;
      }
    }
    std::istringstream in(text);
    try {
      const fault::FaultPlan plan = fault::FaultPlan::parse(in);
      // Accepted input must round-trip: write then parse reproduces it.
      std::ostringstream out;
      plan.write(out);
      std::istringstream again(out.str());
      EXPECT_TRUE(fault::FaultPlan::parse(again) == plan);
    } catch (const ConfigError&) {
      // Expected for malformed input (ParseError derives from this).
    }
    // Any other exception type propagates and fails the test.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPlanFuzz, ::testing::Range(0, 4));

/// Same mutation harness against the trace reader: a corrupted or
/// truncated trace must never crash, loop, or parse into out-of-order
/// arrivals — only ConfigError (or a clean parse) is acceptable.
class TraceIoFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TraceIoFuzz, MutatedTracesNeverEscapeConfigError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 12289 + 11);
  // Build a small valid trace to mutate.
  std::vector<workload::FlowArrival> arrivals;
  double t = 0.0;
  for (int i = 0; i < 12; ++i) {
    t += rng.exponential(100.0);
    workload::FlowArrival a;
    a.time = SimTime{t};
    a.src = static_cast<PortId>(rng.uniform_int(0, 7));
    a.dst = static_cast<PortId>(rng.uniform_int(0, 7));
    a.size = Bytes{rng.uniform_int(1, 1'000'000)};
    a.cls = rng.bernoulli(0.5) ? stats::FlowClass::kQuery
                               : stats::FlowClass::kBackground;
    arrivals.push_back(a);
  }
  std::ostringstream rendered;
  workload::write_trace(rendered, arrivals);
  const std::string pristine = rendered.str();

  for (int round = 0; round < 400; ++round) {
    std::string text = pristine;
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:
          text[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:
          text.erase(pos, 1);
          break;
        case 2:
          text.insert(pos, text.substr(
                               pos, static_cast<std::size_t>(
                                        rng.uniform_int(1, 8))));
          break;
        default:
          text.resize(pos);
          break;
      }
    }
    std::istringstream in(text);
    try {
      const auto trace = workload::read_trace(in);
      // Whatever survived mutation must satisfy the reader's contract.
      double last = 0.0;
      for (const auto& a : trace) {
        ASSERT_GE(a.time.seconds, last);
        ASSERT_GE(a.src, 0);
        ASSERT_GE(a.dst, 0);
        ASSERT_GT(a.size.count, 0);
        last = a.time.seconds;
      }
    } catch (const ConfigError&) {
      // Expected for malformed input.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoFuzz, ::testing::Range(0, 4));

/// And against the serving feed reader (basrpt-feed-v1): the daemon
/// ingests this format off a pipe, so a torn or corrupted stream must
/// surface as a line-numbered ConfigError — never a crash, hang, or a
/// record that violates the reader's contract.
class FeedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FeedFuzz, MutatedFeedsNeverEscapeConfigError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 24593 + 17);
  std::vector<srv::FeedRecord> records;
  double t = 0.0;
  for (int i = 0; i < 12; ++i) {
    t += rng.exponential(200.0);
    srv::FeedRecord rec;
    rec.arrival.time = SimTime{t};
    rec.arrival.src = static_cast<PortId>(rng.uniform_int(0, 7));
    auto dst = static_cast<PortId>(rng.uniform_int(0, 6));
    rec.arrival.dst = dst >= rec.arrival.src ? dst + 1 : dst;
    rec.arrival.size = Bytes{rng.uniform_int(1, 1'000'000)};
    rec.arrival.cls = rng.bernoulli(0.5) ? stats::FlowClass::kQuery
                                         : stats::FlowClass::kBackground;
    rec.tenant = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    records.push_back(rec);
  }
  std::ostringstream rendered;
  srv::write_feed(rendered, records);
  const std::string pristine = rendered.str();

  for (int round = 0; round < 400; ++round) {
    std::string text = pristine;
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:
          text[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:
          text.erase(pos, 1);
          break;
        case 2:
          text.insert(pos, text.substr(
                               pos, static_cast<std::size_t>(
                                        rng.uniform_int(1, 8))));
          break;
        default:
          text.resize(pos);
          break;
      }
    }
    std::istringstream in(text);
    try {
      const auto feed = srv::read_feed(in);
      // Whatever survived mutation must satisfy the reader's contract.
      double last = 0.0;
      for (const auto& r : feed) {
        ASSERT_GE(r.arrival.time.seconds, last);
        ASSERT_GE(r.arrival.src, 0);
        ASSERT_GE(r.arrival.dst, 0);
        ASSERT_NE(r.arrival.src, r.arrival.dst);
        ASSERT_GT(r.arrival.size.count, 0);
        ASSERT_GE(r.tenant, 0);
        last = r.arrival.time.seconds;
      }
    } catch (const ConfigError&) {
      // Expected for malformed input (ParseError derives from this).
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedFuzz, ::testing::Range(0, 4));

// ------------------------------------------- connection machine fuzz

/// Renders a small pristine framed feed (header + records + end).
std::string rendered_socket_feed(Rng& rng) {
  std::vector<srv::FeedRecord> records;
  double t = 0.0;
  for (int i = 0; i < 12; ++i) {
    t += rng.exponential(200.0);
    srv::FeedRecord rec;
    rec.arrival.time = SimTime{t};
    rec.arrival.src = static_cast<PortId>(rng.uniform_int(0, 7));
    auto dst = static_cast<PortId>(rng.uniform_int(0, 6));
    rec.arrival.dst = dst >= rec.arrival.src ? dst + 1 : dst;
    rec.arrival.size = Bytes{rng.uniform_int(1, 1'000'000)};
    rec.arrival.cls = rng.bernoulli(0.5) ? stats::FlowClass::kQuery
                                         : stats::FlowClass::kBackground;
    rec.tenant = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    records.push_back(rec);
  }
  std::ostringstream rendered;
  srv::write_feed(rendered, records);
  return rendered.str();
}

/// Feeds `text` to a fresh Connection in random-sized chunks under an
/// advancing fake clock, draining records and output as it goes.
/// Returns the drained decisions-stream bytes.
std::string feed_through_connection(srv::Connection& conn,
                                    const std::string& text, Rng& rng,
                                    std::vector<srv::FeedRecord>* records) {
  std::string out;
  double now = 0.0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    // Never outrun the connection's timeouts: the fuzz target is the
    // parser and framing, not the (separately tested) timers.
    now += rng.uniform(0.0, 0.01);
    const auto n = static_cast<std::size_t>(rng.uniform_int(
        1, std::min<std::int64_t>(
               64, static_cast<std::int64_t>(text.size() - pos))));
    conn.on_bytes(text.data() + pos, n, now);
    pos += n;
    while (auto rec = conn.take_record()) {
      records->push_back(*rec);
    }
    conn.tick(now);
    while (conn.has_output()) {
      const std::string_view chunk = conn.pending_output();
      const auto take = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(chunk.size())));
      out.append(chunk.data(), take);
      conn.consume_output(take, now);
    }
  }
  while (conn.has_output()) {  // drain the tail (or everything, when the
    const std::string_view chunk = conn.pending_output();  // text is empty)
    out.append(chunk.data(), chunk.size());
    conn.consume_output(chunk.size(), now);
  }
  return out;
}

/// The socket-side twin of FeedFuzz: the same feed bytes arrive as a
/// mutated, arbitrarily-chunked socket stream. The Connection state
/// machine must never throw, never emit a record violating the feed
/// contract, and answer every poison stream with a positioned `error`
/// frame followed by a close — quarantining the connection, never the
/// daemon.
class ConnectionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConnectionFuzz, MutatedStreamsFenceButNeverEscape) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 52361 + 41);
  const std::string pristine = rendered_socket_feed(rng);

  srv::ConnectionConfig config;
  config.max_line_bytes = 256;

  for (int round = 0; round < 300; ++round) {
    std::string text = pristine;
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:  // corrupt one printable byte
          text[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:  // duplicate a whole frame (the line containing pos)
        {
          std::size_t begin = text.rfind('\n', pos);
          begin = begin == std::string::npos ? 0 : begin + 1;
          std::size_t end = text.find('\n', pos);
          end = end == std::string::npos ? text.size() : end + 1;
          text.insert(end, text.substr(begin, end - begin));
          break;
        }
        case 2:  // delete a span
          text.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 8)));
          break;
        default:  // truncate (mid-frame more often than not)
          text.resize(pos);
          break;
      }
    }

    srv::Connection conn(config, 0, 0.0);
    std::vector<srv::FeedRecord> records;
    const std::string out = feed_through_connection(conn, text, rng,
                                                    &records);

    // The outbound stream always opens with the header and the cursor.
    ASSERT_EQ(out.rfind(std::string(srv::kDecisionsMagic) + "\nhello,0\n",
                        0),
              0u);
    // Whatever records crossed the machine satisfy the feed contract.
    double last = 0.0;
    for (const auto& r : records) {
      ASSERT_GE(r.arrival.time.seconds, last);
      ASSERT_NE(r.arrival.src, r.arrival.dst);
      ASSERT_GT(r.arrival.size.count, 0);
      ASSERT_GE(r.tenant, 0);
      last = r.arrival.time.seconds;
    }
    if (conn.fenced()) {
      // Quarantine: a parseable error frame, then a close request.
      const std::size_t err_at = out.find("\nerror,");
      ASSERT_NE(err_at, std::string::npos);
      std::string line = out.substr(
          err_at + 1, out.find('\n', err_at + 1) - err_at - 1);
      const srv::DecisionMsg msg = srv::parse_decision_line(line, 1);
      ASSERT_EQ(msg.kind, srv::DecisionMsg::Kind::kError);
      ASSERT_GE(msg.line, 1u);
      ASSERT_TRUE(conn.want_close());  // error frame fully drained above
      ASSERT_FALSE(conn.take_record().has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectionFuzz, ::testing::Range(0, 4));

TEST(ConnectionFuzz, SplitWritesAreEquivalentToOneShotDelivery) {
  Rng rng(97);
  const std::string pristine = rendered_socket_feed(rng);
  const srv::ConnectionConfig config;

  // Reference: the whole stream in one write.
  srv::Connection oneshot(config, 0, 0.0);
  oneshot.on_bytes(pristine.data(), pristine.size(), 0.0);
  std::vector<srv::FeedRecord> want;
  while (auto rec = oneshot.take_record()) {
    want.push_back(*rec);
  }
  ASSERT_TRUE(oneshot.saw_end());
  ASSERT_FALSE(want.empty());

  for (std::size_t k = 1; k <= 7; ++k) {
    srv::Connection conn(config, 0, 0.0);
    for (std::size_t pos = 0; pos < pristine.size(); pos += k) {
      conn.on_bytes(pristine.data() + pos,
                    std::min(k, pristine.size() - pos), 0.0);
    }
    std::vector<srv::FeedRecord> got;
    while (auto rec = conn.take_record()) {
      got.push_back(*rec);
    }
    ASSERT_EQ(got.size(), want.size()) << "chunk size " << k;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].arrival.time.seconds, want[i].arrival.time.seconds);
      EXPECT_EQ(got[i].arrival.size.count, want[i].arrival.size.count);
      EXPECT_EQ(got[i].tenant, want[i].tenant);
    }
    EXPECT_TRUE(conn.saw_end()) << "chunk size " << k;
    EXPECT_FALSE(conn.fenced()) << "chunk size " << k;
  }
}

TEST(ConnectionFuzz, TruncationAtEveryByteBoundaryIsNeverPoison) {
  Rng rng(131);
  const std::string pristine = rendered_socket_feed(rng);
  const srv::ConnectionConfig config;

  // A pure prefix of a valid stream is a producer that died mid-write:
  // it must never fence, and the `end` sentinel is only visible when
  // the final byte arrived.
  for (std::size_t cut = 0; cut <= pristine.size(); ++cut) {
    srv::Connection conn(config, 0, 0.0);
    conn.on_bytes(pristine.data(), cut, 0.0);
    EXPECT_FALSE(conn.fenced()) << "cut at byte " << cut;
    EXPECT_EQ(conn.saw_end(), cut == pristine.size())
        << "cut at byte " << cut;
    conn.on_peer_eof();
    EXPECT_TRUE(conn.want_close());
  }
}

// ------------------------------------------- checkpoint reader fuzz

/// Renders a genuine mid-run slotted checkpoint, captured once from a
/// short switchsim run, for the checkpoint fuzz suites below.
std::string pristine_slotted_snapshot() {
  switchsim::SlottedConfig config;
  config.n_ports = 4;
  config.horizon = 512;
  config.sample_every = 8;
  config.watched_dst = 1;
  config.checkpoint_every = 256;
  std::string text;
  config.on_checkpoint = [&](const switchsim::SlottedSimState& s) {
    if (text.empty()) {
      ckpt::SnapshotWriter w;
      ckpt::write_slotted_state(w, s);
      text = w.str();
    }
  };
  const auto rates = switchsim::skewed_rates(4, 0.8, 0.6);
  switchsim::SizeMix mix;
  auto scheduler = sched::make_scheduler(sched::SchedulerSpec::srpt());
  (void)switchsim::run_slotted(
      config, *scheduler,
      switchsim::bernoulli_arrivals(rates, mix, 512, Rng(17)));
  return text;
}

/// Byte-level mutations of a real checkpoint file (bit flips, deletes,
/// duplicated spans, truncation). The CRC-guarded container must reject
/// essentially all of them, and nothing but ConfigError may escape — a
/// checkpoint is exactly the file most likely to be torn by the crash
/// it exists to survive.
class CkptContainerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CkptContainerFuzz, MutatedBytesNeverEscapeConfigError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 24593 + 29);
  const std::string pristine = pristine_slotted_snapshot();
  ASSERT_FALSE(pristine.empty());

  for (int round = 0; round < 300; ++round) {
    std::string text = pristine;
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 4)) {
        case 0:  // corrupt one byte (printable, so lines stay lines)
          text[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:  // flip one bit (may produce non-printable bytes)
          text[pos] = static_cast<char>(
              text[pos] ^ (1 << rng.uniform_int(0, 7)));
          break;
        case 2:  // delete one byte
          text.erase(pos, 1);
          break;
        case 3:  // duplicate a span
          text.insert(pos, text.substr(
                               pos, static_cast<std::size_t>(
                                        rng.uniform_int(1, 8))));
          break;
        default:  // truncate (models a torn write)
          text.resize(pos);
          break;
      }
    }
    std::istringstream in(text);
    try {
      const ckpt::Snapshot snap = ckpt::Snapshot::parse(in);
      // The rare mutation that passes every CRC must still either decode
      // or be rejected at the codec layer — never crash.
      (void)ckpt::read_slotted_state(snap);
    } catch (const ConfigError&) {
      // Expected (ParseError derives from ConfigError).
    }
    // Any other exception type propagates and fails the test.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CkptContainerFuzz, ::testing::Range(0, 4));

/// Semantic fuzz below the CRC: mutate whole payload *lines* and rebuild
/// the container (fresh CRCs), so the typed SectionReader and the
/// slotted codec see internally consistent but schema-violating input.
/// This is the drift a newer writer / older reader pair would produce.
class CkptCodecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CkptCodecFuzz, MutatedPayloadNeverEscapesConfigError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40961 + 37);
  const std::string pristine = pristine_slotted_snapshot();
  std::istringstream pin(pristine);
  const ckpt::Snapshot parsed = ckpt::Snapshot::parse(pin);

  for (int round = 0; round < 200; ++round) {
    ckpt::SnapshotWriter w;
    for (const auto& section : parsed.sections()) {
      auto& out = w.section(section.name);
      std::vector<std::string> lines = section.lines;
      const int mutations = static_cast<int>(rng.uniform_int(0, 2));
      for (int m = 0; m < mutations && !lines.empty(); ++m) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(lines.size()) - 1));
        switch (rng.uniform_int(0, 3)) {
          case 0:  // corrupt one byte of the line
            if (!lines[at].empty()) {
              lines[at][static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(lines[at].size()) - 1))] =
                  static_cast<char>(rng.uniform_int(32, 126));
            }
            break;
          case 1:  // drop the line (count drift)
            lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
            break;
          case 2:  // duplicate the line
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                         lines[at]);
            break;
          default:  // swap with a neighbour (order drift)
            if (at + 1 < lines.size()) {
              std::swap(lines[at], lines[at + 1]);
            }
            break;
        }
      }
      for (const auto& line : lines) {
        out.line(line);
      }
    }
    std::istringstream in(w.str());
    try {
      const ckpt::Snapshot snap = ckpt::Snapshot::parse(in);
      (void)ckpt::read_slotted_state(snap);
    } catch (const ConfigError&) {
      // Expected: schema drift must surface as a ParseError.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CkptCodecFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace basrpt
