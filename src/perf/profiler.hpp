// Active performance observability: scoped phase timers with
// self/child-time attribution, plus a global operator new/delete
// allocation counter attributed to the phase that allocated.
//
// This is the counterpart to the passive src/obs layer: obs records
// *what the simulation did*, the profiler records *where the wall-clock
// and the allocator went*. Everything here is pay-for-use twice over:
//
//  * Phase scopes cost one relaxed atomic load when profiling is off —
//    no clock read, no TLS write (the same discipline as
//    obs::ScopedTimer). A scope given a histogram sink reads the clock
//    once at each end either way, so one clock pair serves a metric and
//    the profile.
//  * The operator new/delete interposer lives in this translation unit,
//    so a binary that never references the profiler never links it and
//    keeps the toolchain allocator untouched. Binaries that do link it
//    pay one relaxed load per allocation while counting is off.
//
// Threading contract: phase timing accumulates into plain (unsynchronized)
// globals and is therefore *single-threaded only*. bench::RunSession
// rejects --profile with --jobs > 1; at --jobs 1 exec::run_cells runs
// every sweep cell on the calling thread, so the whole sweep is
// profiled. Allocation counters are relaxed atomics and are safe from
// any thread at any time (helper threads, such as the chaos link's
// proxy loop, allocate too).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace basrpt::perf {

/// The instrumented hot-path phases. kEventDispatch wraps the engine's
/// event callbacks, so the finer phases below it (decide, lifecycle
/// apply, calendar push) nest inside it; self-time attribution keeps
/// the breakdown additive anyway.
enum class Phase : std::uint8_t {
  kEventDispatch = 0,   // sim::Engine executing one event callback
  kCalendarPush = 1,    // sim::Engine::schedule_at heap push
  kCalendarPop = 2,     // sim::Engine::step heap pop
  kDecide = 3,          // Scheduler::decide_into at the simulator call site
  kCandidateRepack = 4, // fabric::CandidateCache::refresh
  kLifecycleApply = 5,  // fabric::FlowLifecycle::apply_decision
  kCheckpointWrite = 6, // ckpt::CheckpointManager durable write
  kMeasuredOp = 7,      // perf::measure_op timed operation
  kScoreKernel = 8,     // fast-BASRPT/threshold key loop over candidate lanes
  kMatchSort = 9,       // GreedyMatcher candidate ordering (sort/radix)
  kCount
};
constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

const char* phase_name(Phase phase);

/// Global profiling switch (phase timers). Off by default; enabling also
/// enables allocation counting.
bool profiling();
void set_profiling(bool on);

/// Allocation counting alone (no clocks): the measurement harness uses
/// this to report allocs/op without paying for phase timing.
bool alloc_counting();
void set_alloc_counting(bool on);

/// Total allocations observed so far (all phases + unattributed), for
/// before/after deltas. Monotonic while counting is on.
std::uint64_t alloc_total();

/// Called by the interposer on every allocation while counting is on;
/// exposed for tests that want to simulate attribution without
/// depending on allocator behavior.
void note_alloc(std::size_t bytes);

struct PhaseStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  // inclusive of nested phases
  std::uint64_t self_ns = 0;   // exclusive: total minus nested phase time
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

class ScopedPhase;

/// Process-wide phase accumulator. reset() + begin_window() ...
/// end_window() brackets the measured region; coverage() is the share
/// of that window accounted for by phase self-time, which the perf
/// suite requires to stay >= 0.9 for an honest breakdown.
class Profiler {
 public:
  static Profiler& global();

  void reset();
  void begin_window();
  void end_window();
  std::uint64_t window_ns() const { return window_ns_; }

  PhaseStats stats(Phase phase) const;
  const obs::LatencyHistogram& histogram(Phase phase) const;
  /// Allocations observed outside any phase scope.
  PhaseStats unattributed() const;

  std::uint64_t total_self_ns() const;
  /// sum(self_ns) / window_ns, in [0, +); 0 when no window was closed.
  double coverage() const;

  /// Span recording feeds Chrome-trace output: every phase scope is
  /// kept as a (phase, start, duration) triple relative to the window
  /// start, capped at `limit` spans (the cap is reported so truncation
  /// is never silent). Off by default — per-event spans are bulky.
  void set_span_recording(bool on, std::size_t limit = 200000);
  bool span_recording() const { return record_spans_; }
  std::size_t spans_dropped() const { return spans_dropped_; }

  /// Appends recorded spans to `tracer` as phase spans, which
  /// FlowTracer::write_chrome_json renders as complete ("X") events on
  /// a dedicated profiler track — the "merged into the existing
  /// FlowTracer stream" half of the export story.
  void export_spans(obs::FlowTracer& tracer) const;

  /// basrpt-profile-v1 JSON breakdown (the other half).
  std::string to_json() const;
  void write_json_file(const std::string& path) const;

 private:
  friend class ScopedPhase;
  friend void note_alloc(std::size_t);

  struct Span {
    Phase phase;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
  };

  void record(Phase phase, std::uint64_t start_ns, std::uint64_t elapsed_ns,
              std::uint64_t self_ns);

  PhaseStats stats_[kPhaseCount] = {};
  obs::LatencyHistogram hist_[kPhaseCount] = {};
  std::uint64_t window_ns_ = 0;
  std::uint64_t window_start_ns_ = 0;
  bool window_open_ = false;
  bool record_spans_ = false;
  std::size_t span_limit_ = 0;
  std::size_t spans_dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII phase scope. Disarmed (one relaxed load, nothing else) when
/// profiling is off. While armed it maintains the thread-local current
/// phase used for allocation attribution, accumulates child time into
/// the enclosing scope, and records elapsed/self time on destruction.
/// A non-null `sink` also receives the elapsed nanoseconds, with
/// profiling on or off; only the profile depends on profiling().
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase, obs::LatencyHistogram* sink = nullptr);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  bool armed_;
  Phase phase_;
  obs::LatencyHistogram* sink_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  ScopedPhase* parent_ = nullptr;
  std::uint8_t prev_phase_tag_ = 0;
};

}  // namespace basrpt::perf
