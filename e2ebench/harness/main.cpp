// e2ebench: one workload, one process, one result line.
//
//   e2ebench --workload <paper144|slotted32-srpt|serve24> [--seed N]
//            [--seconds S] [--trace 0|1] [--spans-out PATH]
//
// Runs whole units of the workload until S seconds have passed. --trace 0
// reports the end-to-end metrics from untraced units, each preceded by
// timed set-ups (setup_s is their median). --trace 1 alternates untraced
// and traced units and reports the per-layer metrics; the spans of the
// traced units are written to --spans-out when the run ends. Every unit
// is checked (conservation ledgers; digest equal to the pinned one on
// the default seed, else to the run's first unit); the last stdout line
// is the JSON result, and the exit code is 1 when a check failed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"
#include "perf/profiler.hpp"

namespace {

using namespace e2ebench;
using basrpt::perf::Phase;

/// Set-ups before each timed unit: kSetupRepsPerUnit, or fewer once
/// kSetupNsPerUnit is spent (at least one). setup_s is the median over
/// the run, so it samples the same host conditions as the units rather
/// than only the first milliseconds of the process.
constexpr int kSetupRepsPerUnit = 25;
constexpr std::uint64_t kSetupNsPerUnit = 50'000'000;
/// Wall time given to the post-run route + solve replay.
constexpr std::uint64_t kReplayNs = 300'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

void usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <paper144|slotted32-srpt|serve24> "
               "[--seed N] [--seconds S] [--trace 0|1] [--spans-out PATH]\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
      if (!a.trace && std::strcmp(val, "0") != 0) {
        return false;
      }
    } else if (key == "--spans-out") {
      a.spans_out = val;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == val)) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Running tally of attempts and checks over a whole run. Every unit's
/// digest must equal the pinned one on the default seed, and the first
/// unit's on any other seed.
class Checker {
 public:
  Checker(const Workload& w, std::uint64_t seed)
      : have_ref_(seed == kDefaultSeed),
        ref_(have_ref_ ? w.pinned_digest() : 0),
        ref_name_(have_ref_ ? "pinned" : "first unit") {}

  void unit(const UnitOutcome& u, const char* kind) {
    attempted_ += u.records;
    failed_ += u.shed_records;
    std::string why = u.ledger_error;
    if (!printed_) {
      printed_ = true;
      std::printf("digest %s (%s unit)\n", hex64(u.digest).c_str(), kind);
    }
    if (!have_ref_) {
      have_ref_ = true;
      ref_ = u.digest;
    } else if (u.digest != ref_) {
      why += std::string("digest of a ") + kind + " unit " +
             hex64(u.digest) + " != " + ref_name_ + " " + hex64(ref_) +
             "; ";
    }
    if (!why.empty()) {
      failed_ += u.records - u.shed_records;
      fail(why);
    }
  }
  void threw(const std::exception& e) {
    attempted_ += 1;
    failed_ += 1;
    fail(std::string("unit threw: ") + e.what());
  }
  void fail(const std::string& why) {
    correct_ = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }

  bool correct() const { return correct_ && failed_ == 0; }
  std::int64_t attempted() const { return attempted_ < 1 ? 1 : attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  bool have_ref_;
  std::uint64_t ref_;
  const char* ref_name_;
  bool printed_ = false;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A percentile as a metric, printed with its evidence; a refused one
/// fails the run (the metric cannot be reported).
double checked_percentile(const Percentile& p, const char* what, double scale,
                          Checker& checker) {
  std::printf("percentile %s p%g: n=%llu beyond=%llu %s\n", what,
              p.q * 100.0, static_cast<unsigned long long>(p.n),
              static_cast<unsigned long long>(p.beyond),
              p.ok ? "ok" : "REFUSED (fewer than 10 samples beyond)");
  if (!p.ok) {
    checker.fail(std::string("percentile ") + what + " refused");
  }
  return p.value * scale;
}

void print_result(const Checker& checker, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              checker.correct() ? "true" : "false",
              static_cast<long long>(checker.attempted()),
              static_cast<long long>(checker.failed()));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit);
  }
  std::printf("}}\n");
}

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

double per(double part, std::uint64_t count) {
  return count == 0 ? 0.0 : part / static_cast<double>(count);
}

/// Times one set-up into `samples`.
void time_setup(Workload& w, std::vector<double>& samples) {
  const std::uint64_t t0 = now_ns();
  w.setup();
  samples.push_back(static_cast<double>(now_ns() - t0) / 1e9);
}

/// Untraced units for `seconds`, each after a batch of set-ups: the
/// end-to-end metrics. `setup_s` holds the set-ups made so far.
std::vector<Metric> timed_run(Workload& w, const Args& a, Checker& checker,
                              std::vector<double> setup_s) {
  LogHistogram record_ns;
  std::vector<double> wall_s;
  std::vector<double> decisions_per_s;
  std::vector<double> records_per_s;
  const std::uint64_t t_end =
      now_ns() + static_cast<std::uint64_t>(a.seconds * 1e9);
  while (wall_s.empty() || now_ns() < t_end) {
    UnitOutcome u;
    try {
      const std::uint64_t batch_end = now_ns() + kSetupNsPerUnit;
      for (int i = 0;
           i < kSetupRepsPerUnit && (i == 0 || now_ns() < batch_end); ++i) {
        time_setup(w, setup_s);
      }
      u = w.run_unit(record_ns, nullptr);
    } catch (const std::exception& e) {
      checker.threw(e);
      break;
    }
    checker.unit(u, "timed");
    const double s = static_cast<double>(u.wall_ns) / 1e9;
    wall_s.push_back(s);
    decisions_per_s.push_back(static_cast<double>(u.decisions) / s);
    records_per_s.push_back(static_cast<double>(u.records) / s);
  }
  std::printf("units %zu, set-ups %zu, wall_s:", wall_s.size(),
              setup_s.size());
  for (const double s : wall_s) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
  const double p50 = checked_percentile(record_ns.percentile(0.50),
                                        "record_us", 1e-3, checker);
  const double p99 = checked_percentile(record_ns.percentile(0.99),
                                        "record_us", 1e-3, checker);
  const double failed_frac = static_cast<double>(checker.failed()) /
                             static_cast<double>(checker.attempted());
  std::printf("metric %-32s %.6g %s\n", "failed_frac", failed_frac, "frac");
  return {
      {"wall_s", median(wall_s), "s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"decisions_per_s", median(decisions_per_s), "1/s"},
      {"records_per_s", median(records_per_s), "1/s"},
      {"record_p50_us", p50, "us"},
      {"record_p99_us", p99, "us"},
  };
}

/// Alternating untraced and traced units for `seconds`: the per-layer
/// metrics, measured from outside by the decorators' spans and the
/// profiler's existing phases.
std::vector<Metric> traced_run(Workload& w, const Args& a, Checker& checker) {
  LogHistogram unused;
  Probes probes;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::uint64_t decisions = 0;
  basrpt::perf::Profiler& prof = basrpt::perf::Profiler::global();
  prof.reset();
  const std::uint64_t t_end =
      now_ns() + static_cast<std::uint64_t>(a.seconds * 1e9);
  while (traced_s.empty() || now_ns() < t_end) {
    try {
      const UnitOutcome plain = w.run_unit(unused, nullptr);
      checker.unit(plain, "untraced");
      plain_s.push_back(static_cast<double>(plain.wall_ns) / 1e9);
      const UnitOutcome traced = w.run_unit(unused, &probes);
      checker.unit(traced, "traced");
      traced_s.push_back(static_cast<double>(traced.wall_ns) / 1e9);
      decisions += traced.decisions;
    } catch (const std::exception& e) {
      checker.threw(e);
      break;
    }
  }
  std::printf("units %zu untraced + %zu traced\n", plain_s.size(),
              traced_s.size());

  const std::uint64_t W = prof.window_ns();
  auto ph = [&](Phase p) { return prof.stats(p); };
  const auto dispatch = ph(Phase::kEventDispatch);
  const auto push = ph(Phase::kCalendarPush);
  const auto pop = ph(Phase::kCalendarPop);
  const auto decide = ph(Phase::kDecide);
  const auto repack = ph(Phase::kCandidateRepack);
  const auto lifecycle = ph(Phase::kLifecycleApply);
  const auto score = ph(Phase::kScoreKernel);
  const auto sort = ph(Phase::kMatchSort);
  std::uint64_t phase_self_no_dispatch = 0;
  for (std::size_t k = 0; k < basrpt::perf::kPhaseCount; ++k) {
    if (static_cast<Phase>(k) != Phase::kEventDispatch) {
      phase_self_no_dispatch += prof.stats(static_cast<Phase>(k)).self_ns;
    }
  }

  // Route + rate solve run inside event dispatch with no phase of their
  // own: estimate their share by replaying the captured serving sets.
  double solve_ns = 0.0;
  if (w.fabric() != nullptr) {
    solve_ns = replay_route_solve(*w.fabric(), probes.serving_sets,
                                  kReplayNs, &probes.spans);
  }
  const double topo_ns =
      solve_ns * static_cast<double>(probes.nonempty_decides);

  const SpanRecorder& spans = probes.spans;
  const std::uint64_t traffic_ns = spans.total_ns(SpanName::kTrafficNext);
  const std::uint64_t pull_ns = spans.total_ns(SpanName::kArrivalPull);
  const std::uint64_t parse_ns = spans.total_ns(SpanName::kFeedParse);
  // sched self: the decide boundary minus the scoring and sorting nested
  // in it (the decorator is the only other thing inside that boundary).
  const std::uint64_t sched_self =
      self_time(decide.total_ns, score.total_ns + sort.total_ns);
  const double dispatch_residual =
      static_cast<double>(dispatch.self_ns) -
      static_cast<double>(traffic_ns) - topo_ns;
  const double attributed = static_cast<double>(phase_self_no_dispatch) +
                            static_cast<double>(traffic_ns + pull_ns +
                                                parse_ns) +
                            topo_ns;
  const double Wd = static_cast<double>(W);
  const bool slotted = probes.slots > 0;
  const double switchsim_residual =
      slotted && W > 0 ? (Wd - static_cast<double>(prof.total_self_ns()) -
                 static_cast<double>(pull_ns)) / Wd
              : 0.0;

  const double decide_p50 = checked_percentile(
      probes.decide_ns.percentile(0.50), "sched.decide_ns", 1.0, checker);
  const double decide_p99 = checked_percentile(
      probes.decide_ns.percentile(0.99), "sched.decide_ns", 1.0, checker);

  std::printf("window_ns %llu spans kept %zu dropped %llu serving sets %zu\n",
              static_cast<unsigned long long>(W), probes.spans.spans().size(),
              static_cast<unsigned long long>(probes.spans.dropped()),
              probes.serving_sets.size());
  if (!a.spans_out.empty()) {
    if (probes.spans.write_json(a.spans_out)) {
      std::printf("wrote %s\n", a.spans_out.c_str());
    } else {
      std::printf("could not write %s\n", a.spans_out.c_str());
    }
  }

  // Counts are per traced unit: every unit runs the same input, so they
  // repeat exactly whatever the machine's speed.
  const std::uint64_t units = traced_s.size();
  return {
      {"topo.solve_ns_per_call", solve_ns, "ns"},
      {"topo.flows_per_solve",
       w.fabric() == nullptr
           ? 0.0
           : per(static_cast<double>(probes.selected_sum),
                 probes.nonempty_decides),
       "flows"},
      {"topo.replay_frac", W == 0 ? 0.0 : topo_ns / Wd, "frac"},
      {"flowsim.residual_frac", W == 0 ? 0.0 : dispatch_residual / Wd, "frac"},
      {"sim.events", per(static_cast<double>(dispatch.calls), units),
       "count/unit"},
      {"sim.calendar_self_frac", frac(push.self_ns + pop.self_ns, W), "frac"},
      {"sched.decides", per(static_cast<double>(probes.decides), units),
       "count/unit"},
      {"sched.decide_p50_ns", decide_p50, "ns"},
      {"sched.decide_p99_ns", decide_p99, "ns"},
      {"sched.candidates_mean",
       per(static_cast<double>(probes.candidates_sum), probes.decides),
       "count"},
      {"sched.selected_mean",
       per(static_cast<double>(probes.selected_sum), probes.decides), "count"},
      {"sched.self_frac", frac(sched_self, W), "frac"},
      {"matching.sort_self_frac", frac(sort.self_ns, W), "frac"},
      {"matching.sort_ns_per_call",
       per(static_cast<double>(sort.total_ns), sort.calls), "ns"},
      {"fabric.repack_self_frac", frac(repack.self_ns, W), "frac"},
      {"fabric.repack_ns_per_call",
       per(static_cast<double>(repack.total_ns), repack.calls), "ns"},
      {"fabric.lifecycle_self_frac", frac(lifecycle.self_ns, W), "frac"},
      {"simd.score_self_frac", frac(score.self_ns, W), "frac"},
      {"workload.arrivals", per(static_cast<double>(probes.arrivals), units),
       "count/unit"},
      {"workload.ns_per_arrival",
       per(static_cast<double>(traffic_ns), probes.arrivals), "ns"},
      {"workload.self_frac", frac(traffic_ns, W), "frac"},
      {"switchsim.arrivals_ns_per_slot",
       per(static_cast<double>(pull_ns), probes.slots), "ns"},
      {"switchsim.residual_frac", switchsim_residual, "frac"},
      {"switchsim.allocs_per_slot",
       slotted ? per(static_cast<double>(probes.allocs), probes.slots) : 0.0,
       "count"},
      {"srv.parse_ns_per_record",
       per(static_cast<double>(parse_ns), probes.parsed_records), "ns"},
      {"srv.queue_depth_peak", static_cast<double>(probes.queue_depth_peak),
       "count"},
      {"srv.shed", per(static_cast<double>(probes.shed), units),
       "count/unit"},
      {"srv.health_transitions",
       per(static_cast<double>(probes.health_transitions), units),
       "count/unit"},
      {"allocs_per_decision",
       per(static_cast<double>(probes.allocs), decisions), "count"},
      {"attributed_frac", W == 0 ? 0.0 : attributed / Wd, "frac"},
      {"trace_overhead_frac",
       plain_s.empty() || traced_s.empty()
           ? 0.0
           : median(traced_s) / median(plain_s) - 1.0,
       "frac"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage();
    return 2;
  }
  std::unique_ptr<Workload> w;
  try {
    w = make_workload(a.workload, a.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    usage();
    return 2;
  }
  std::printf("definition %s\n", w->definition().c_str());
  std::fflush(stdout);

  Checker checker(*w, a.seed);
  std::vector<double> setup_s;
  try {
    time_setup(*w, setup_s);  // units need one set-up before the first
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: set-up failed: %s\n", e.what());
    return 1;
  }

  const std::vector<Metric> metrics =
      a.trace ? traced_run(*w, a, checker)
              : timed_run(*w, a, checker, std::move(setup_s));
  print_result(checker, metrics);
  return checker.correct() ? 0 : 1;
}
