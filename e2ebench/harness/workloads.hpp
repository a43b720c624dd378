// The three benchmark workloads and the probes of the traced run.
//
// A workload is one fixed input, made from --seed, that the harness runs
// again and again ("units") for the measured seconds. Every unit of a run
// processes the same input, so each unit's output digest must equal the
// first's; on the default seed it must also equal the digest pinned
// below. Timed units run the program with no probe beyond a wall-clock
// stamp per input record; traced units wrap the public entry points of
// each layer in forwarding decorators that open spans and count work.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "flowsim/flow_sim.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "topo/topology.hpp"
#include "workload/traffic.hpp"

namespace e2ebench {

inline constexpr std::uint64_t kDefaultSeed = 1;

/// One flow of a serving set captured by the scheduler decorator.
struct ServedFlow {
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::uint64_t id = 0;
};

/// Everything the traced run measures from outside the program.
struct Probes {
  SpanRecorder spans;
  /// Scheduler decorator tallies.
  LogHistogram decide_ns;
  std::uint64_t decides = 0;
  std::uint64_t candidates_sum = 0;
  std::uint64_t selected_sum = 0;
  std::uint64_t nonempty_decides = 0;
  /// Serving sets sampled for the post-run route + rate-solve replay.
  std::vector<std::vector<ServedFlow>> serving_sets;
  /// Traffic/arrival/feed decorator tallies.
  std::uint64_t arrivals = 0;
  std::uint64_t slots = 0;
  std::uint64_t parsed_records = 0;
  /// Server state read after each traced serve (serve24 only).
  std::int64_t queue_depth_peak = 0;
  std::int64_t shed = 0;
  std::int64_t health_transitions = 0;
  /// Allocations counted inside traced units' timed regions.
  std::uint64_t allocs = 0;
};

/// What one unit produced.
struct UnitOutcome {
  std::uint64_t digest = 0;
  /// Empty when every conservation ledger balances.
  std::string ledger_error;
  std::int64_t records = 0;         // input records taken by the program
  std::int64_t shed_records = 0;    // refused by admission (serve24)
  std::uint64_t decisions = 0;      // scheduler invocations
  std::uint64_t wall_ns = 0;        // the timed region
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Canonical one-line JSON definition, echoed with every result so a
  /// redefinition shows as a diff.
  virtual std::string definition() const = 0;
  /// Digest pinned for kDefaultSeed.
  virtual std::uint64_t pinned_digest() const = 0;
  /// One program set-up: what the program builds before its first event
  /// or record, built and dropped; the caller times it.
  virtual void setup() = 0;
  /// One whole run. `record_ns` receives the wall time per input record;
  /// `probes` is null in timed units.
  virtual UnitOutcome run_unit(LogHistogram& record_ns, Probes* probes) = 0;
  /// The fabric route/solve replays run on; null for the slotted model.
  virtual const basrpt::topo::FabricConfig* fabric() const = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// paper144's experiment configuration, and the pieces
/// core::run_experiment builds from any configuration. paper144 runs
/// exactly this composition so it can forward the traffic source and the
/// scheduler through decorators; a test pins it to run_experiment.
basrpt::core::ExperimentConfig paper144_config(std::uint64_t seed);
basrpt::flowsim::FlowSimConfig experiment_sim_config(
    const basrpt::core::ExperimentConfig& config);
basrpt::workload::TrafficSourcePtr experiment_traffic(
    const basrpt::core::ExperimentConfig& config);

/// Digest of a flow-level run: flows arrived/completed/left, offered,
/// delivered and leftover bytes, per-class FCT aggregates, scheduler
/// invocations and the backlog and delivery traces.
std::uint64_t digest_flowsim(const basrpt::flowsim::FlowSimResult& result);

/// Replays route_into + solve_into over the captured serving sets for
/// at least `min_ns` of wall time; returns mean ns per (route all +
/// solve) call, 0 without sets.
double replay_route_solve(const basrpt::topo::FabricConfig& fabric,
                          const std::vector<std::vector<ServedFlow>>& sets,
                          std::uint64_t min_ns, SpanRecorder* spans);

}  // namespace e2ebench
