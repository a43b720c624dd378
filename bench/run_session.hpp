// bench::RunSession — the single session object behind every figure
// bench: observability (--metrics / --trace / --heartbeat / --profile),
// fault wiring (--fault-plan / --fault-seed / --watchdog / --paranoid),
// checkpoint/resume and the --jobs sweep runner.
//
// One construction order, one finish():
//
//   CliParser cli("bench_fig6_loads", "...");
//   cli.real("gap", 0.0, "...");                 // bench-own flags first
//   if (!bench::parse_common(cli, argc, argv)) return 0;
//   bench::Scale scale = bench::scale_from_cli(cli);
//   bench::RunSession session(cli, "fig6_loads", scale.fabric.hosts(),
//                             scale.fct_horizon);
//   exec::Sweep sweep;
//   ... session.apply(config); sweep.add(label, config, commit); ...
//   session.run_sweep(sweep);                    // honors --jobs N
//   bench::emit(table, cli);
//   session.finish();
//
// run_sweep is one path at every --jobs value: the stored checkpoint
// prefix replays first, then the remaining cells run through
// exec::run_cells, and results, commit callbacks, checkpoint writes and
// progress lines all land in submission order (see docs/PARALLEL.md for
// the determinism contract). At --jobs 1 slotted cells additionally
// capture mid-run state.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "checkpoint_session.hpp"
#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "exec/cell_pool.hpp"
#include "exec/sweep.hpp"
#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/profiler.hpp"
#include "report/metrics_json.hpp"

namespace basrpt::bench {

class RunSession {
 public:
  /// Whether this bench's work is organized in checkpointable cells.
  /// kNone benches (no resumable units) reject the checkpoint flags
  /// outright instead of silently ignoring them.
  enum class Checkpointing { kCells, kNone };

  /// Construct once, directly after parse_common (it enables the global
  /// obs registry and profiler when an output is requested).
  /// `fault_ports` / `fault_horizon` size a --fault-plan=random schedule:
  /// the fabric's host count and the swept horizon — in slots, for
  /// slotted benches, whose plans are in slot units.
  RunSession(const CliParser& cli, std::string bench_name,
             std::int32_t fault_ports, SimTime fault_horizon,
             Checkpointing checkpointing = Checkpointing::kCells)
      : metrics_path_(cli.get_text("metrics")),
        trace_path_(cli.get_text("trace")),
        profile_path_(cli.get_text("profile-out")),
        profile_(cli.get_flag("profile") || !profile_path_.empty()),
        heartbeat_sec_(cli.get_real("heartbeat")),
        watchdog_sec_(cli.get_real("watchdog")),
        paranoid_(cli.get_flag("paranoid")),
        jobs_(exec::resolve_jobs(static_cast<int>(cli.get_integer("jobs")))) {
    if (!metrics_path_.empty()) {
      obs::set_enabled(true);
      obs::Registry::global().reset();  // this run's numbers only
    }
    if (profile_) {
      perf::Profiler& profiler = perf::Profiler::global();
      profiler.reset();
      // Span export only matters when a trace will be written; skipping
      // it otherwise keeps --profile's memory footprint flat.
      profiler.set_span_recording(!trace_path_.empty());
      perf::set_profiling(true);
      profiler.begin_window();
    }
    // Heartbeat lines log at INFO but the default threshold is WARN;
    // asking for --heartbeat implies wanting to see them. An explicit
    // BASRPT_LOG_LEVEL still wins.
    if (heartbeat_sec_ > 0.0 && std::getenv("BASRPT_LOG_LEVEL") == nullptr &&
        log_level() > LogLevel::kInfo) {
      set_log_level(LogLevel::kInfo);
    }
    load_fault_plan(cli, fault_ports, fault_horizon);
    // Phase timing accumulates into unsynchronized globals (see
    // perf/profiler.hpp); a parallel profile would be silently corrupt,
    // so refuse the combination like any other bad flag pair.
    if (jobs_ > 1 && profile_) {
      std::fprintf(stderr,
                   "error: --profile requires a sequential run; drop "
                   "--jobs or set --jobs 1\n");
      std::exit(2);
    }
    if (checkpointing == Checkpointing::kCells) {
      ckpt_.emplace(cli, std::move(bench_name));
    } else if (!cli.get_text("checkpoint-dir").empty() ||
               !cli.get_text("resume").empty() ||
               cli.get_integer("checkpoint-every") != 0) {
      // Silent acceptance would read as "checkpointing worked".
      std::fprintf(stderr,
                   "error: this bench has no checkpointable work units; "
                   "--checkpoint-dir/--checkpoint-every/--resume do not "
                   "apply here\n");
      std::exit(2);
    }
  }

  /// Wires the shared flags into one cell config: tracer, heartbeat,
  /// fault plan, watchdog and --paranoid. With no flags set it changes
  /// nothing, so outputs stay bit-identical.
  template <typename Config>
  void apply(Config& config) {
    if (!trace_path_.empty()) {
      config.tracer = &tracer_;
    }
    if (heartbeat_sec_ > 0.0) {
      config.heartbeat_wall_sec = heartbeat_sec_;
    }
    if (!plan_.empty()) {
      config.fault_plan = &plan_;
    }
    if (watchdog_sec_ > 0.0) {
      config.watchdog.stall_wall_sec = watchdog_sec_;
    }
    if (paranoid_) {
      config.paranoid = true;
    }
  }

  bool fault_active() const { return !plan_.empty(); }
  const fault::FaultPlan& fault_plan() const { return plan_; }

  /// Prints the fault counters of a finished run (omitted when inactive).
  void fault_report(const char* label, const fault::FaultStats& stats) const {
    if (!fault_active()) {
      return;
    }
    std::printf("faults[%s]: %lld transitions, %lld decisions suppressed, "
                "%lld flows requeued, %lld candidates masked\n",
                label, static_cast<long long>(stats.transitions),
                static_cast<long long>(stats.decisions_suppressed),
                static_cast<long long>(stats.flows_requeued),
                static_cast<long long>(stats.candidates_masked));
  }

  /// Serialized cell-completion progress line (stderr). At --jobs 1 the
  /// bytes are identical to a bare fprintf; under parallelism lines
  /// never interleave with worker-side logging.
  __attribute__((format(printf, 2, 3))) void progress(const char* format,
                                                      ...) {
    std::va_list args;
    va_start(args, format);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    exec::progress("%s", buf);
  }

  /// Runs every declared cell, honoring --jobs and --resume. Commits —
  /// bench callbacks, checkpoint writes, table rows — happen in
  /// submission order on this thread at any job count.
  void run_sweep(exec::Sweep& sweep) {
    // Replay and mid-run state are taken before any cell runs: resume
    // logic stays strictly single-threaded.
    std::size_t next = ckpt_ ? ckpt_->replay(sweep) : 0;
    if (ckpt_ && jobs_ == 1) {
      ckpt_->arm_capture(sweep, next);
    }
    try {
      sweep.run(jobs_, tracer_or_null(), next,
                [&](std::size_t i, const exec::CellOutput& out) {
                  if (ckpt_) {
                    ckpt_->record(sweep.cell(i), out);
                  }
                  next = i + 1;
                });
    } catch (const InterruptedError& e) {
      fail(e.what(), e.signal_number() > 0 ? 128 + e.signal_number() : 3);
    } catch (const fault::StallError& e) {
      // Lowest failing index first: the stalled cell is the next one
      // due to commit.
      std::fprintf(stderr, "stall during cell '%s': %s\n",
                   sweep.cell(next).label.c_str(), e.what());
      fail("watchdog stall", 3);
    }
  }

  /// The same ordered fan-out for benches whose cells are not
  /// experiment/slotted runs (e.g. packet-level replays): `task(i,
  /// tracer)` computes cell i, with `tracer` the one its simulator
  /// should record into (null without --trace); `commit(i)` runs on
  /// this thread in submission order. No checkpoint layer — pair with
  /// Checkpointing::kNone.
  void run_cells(
      std::size_t count,
      const std::function<void(std::size_t, obs::FlowTracer*)>& task,
      const std::function<void(std::size_t)>& commit) {
    exec::run_cells(jobs_, count, tracer_or_null(), task, commit);
  }

  /// Writes the artifacts; call once, after emitting results. `status`
  /// other than "ok" marks a partial flush (signal / stall / config-
  /// parse failure): metrics carry a top-level "status" field and the
  /// trace a run_status marker, so downstream tooling never mistakes
  /// partial numbers for final ones.
  void finish(const std::string& status = "ok") {
    if (profile_) {
      perf::Profiler& profiler = perf::Profiler::global();
      profiler.end_window();
      perf::set_profiling(false);
      if (!trace_path_.empty()) {
        profiler.export_spans(tracer_);
        if (profiler.spans_dropped() > 0) {
          std::fprintf(stderr,
                       "profile: trace span cap reached; %zu later phase "
                       "spans not exported (aggregates still cover them)\n",
                       profiler.spans_dropped());
        }
      }
      if (!profile_path_.empty()) {
        profiler.write_json_file(profile_path_);
        std::printf("wrote profile to %s\n", profile_path_.c_str());
      }
      print_profile_breakdown(profiler);
      profile_ = false;  // a second finish() must not reopen the window
    }
    if (!metrics_path_.empty()) {
      report::write_metrics_file(metrics_path_, obs::Registry::global(),
                                 status);
      std::printf("wrote metrics to %s\n", metrics_path_.c_str());
    }
    if (!trace_path_.empty()) {
      const bool jsonl =
          trace_path_.size() >= 6 &&
          trace_path_.compare(trace_path_.size() - 6, 6, ".jsonl") == 0;
      if (jsonl) {
        tracer_.write_jsonl_file(trace_path_, status);
      } else {
        tracer_.write_chrome_json_file(trace_path_, status);
      }
      std::printf("wrote %zu trace events to %s\n", tracer_.size(),
                  trace_path_.c_str());
    }
  }

 private:
  obs::FlowTracer* tracer_or_null() {
    return trace_path_.empty() ? nullptr : &tracer_;
  }

  // Plan loading fails like a bad flag would: a clear message and exit
  // 2 — after flushing honestly-labelled partial artifacts — not an
  // uncaught ParseError terminating the process.
  void load_fault_plan(const CliParser& cli, std::int32_t ports,
                       SimTime horizon) {
    const std::string& spec = cli.get_text("fault-plan");
    try {
      if (spec == "random") {
        fault::RandomFaultSpec random;
        random.ports = ports;
        random.horizon = horizon.seconds;
        plan_ = fault::FaultPlan::randomized(
            random,
            static_cast<std::uint64_t>(cli.get_integer("fault-seed")));
      } else if (!spec.empty()) {
        plan_ = fault::FaultPlan::from_file(spec);
      }
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "error: --fault-plan %s: %s\n", spec.c_str(),
                   e.what());
      finish("interrupted");
      std::exit(2);
    }
    if (!plan_.empty()) {
      std::printf("fault plan: %zu events over [0, %.3g] s\n", plan_.size(),
                  plan_.span());
    }
  }

  /// Interruption: checkpoints the committed prefix (keeping a mid-run
  /// state the running cell just wrote), flushes partial artifacts with
  /// the "interrupted" marker, and exits.
  [[noreturn]] void fail(const std::string& why, int code) {
    if (ckpt_) {
      ckpt_->write_interrupted();
    }
    finish("interrupted");
    std::fprintf(stderr, "interrupted (%s): partial artifacts flushed%s\n",
                 why.c_str(),
                 ckpt_ ? "; resume with --resume latest" : "");
    std::exit(code);
  }

  static void print_profile_breakdown(const perf::Profiler& profiler) {
    std::fprintf(stderr, "profile: window %.3f s, coverage %.1f%%\n",
                static_cast<double>(profiler.window_ns()) * 1e-9,
                profiler.coverage() * 100.0);
    for (std::size_t p = 0; p < perf::kPhaseCount; ++p) {
      const auto phase = static_cast<perf::Phase>(p);
      const perf::PhaseStats s = profiler.stats(phase);
      if (s.calls == 0) {
        continue;
      }
      std::fprintf(stderr,
                  "  %-17s %12llu calls  self %9.3f ms  p99 %8.0f ns  "
                  "allocs %llu\n",
                  perf::phase_name(phase),
                  static_cast<unsigned long long>(s.calls),
                  static_cast<double>(s.self_ns) * 1e-6,
                  profiler.histogram(phase).quantile(0.99),
                  static_cast<unsigned long long>(s.allocs));
    }
    const perf::PhaseStats u = profiler.unattributed();
    if (u.allocs > 0) {
      std::fprintf(stderr, "  %-17s %32s allocs %llu\n", "(unattributed)", "",
                  static_cast<unsigned long long>(u.allocs));
    }
  }

  std::string metrics_path_;
  std::string trace_path_;
  std::string profile_path_;
  bool profile_;
  double heartbeat_sec_;
  double watchdog_sec_;
  bool paranoid_;
  int jobs_;
  obs::FlowTracer tracer_;
  fault::FaultPlan plan_;
  std::optional<CheckpointSession> ckpt_;
};

}  // namespace basrpt::bench
