// Machine-readable benchmark records: the basrpt-bench-v1 schema.
//
// A record is one benchmark binary's worth of measured cases — e.g.
// bench_sched_micro's decide loop per scheduler per port count — plus
// enough provenance (commit, host fingerprint, repetition discipline)
// to judge whether two records are comparable. C++ only writes records,
// to BENCH_<name>.json; committed baselines live at the repo root, and
// the one reader is the regression gate (scripts/perf_gate.py), which
// validates a record and diffs fresh runs against the baselines. See
// docs/PERF.md for the schema and the metric naming convention the
// gate's direction inference relies on.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace basrpt::perf {

inline constexpr const char* kBenchSchema = "basrpt-bench-v1";

/// One measured configuration. `label` is the gate's join key and must
/// be unique within a record; `params` carries the configuration that
/// produced the numbers (scheduler spec, ports, iteration counts) as
/// strings; `metrics` carries the numbers, named per the convention in
/// docs/PERF.md (suffix decides gate direction).
struct BenchCase {
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::pair<std::string, double>> metrics;

  void param(const std::string& key, const std::string& value) {
    params.emplace_back(key, value);
  }
  void metric(const std::string& key, double value) {
    metrics.emplace_back(key, value);
  }
};

struct BenchRecord {
  std::string name;     // bench identity: "sched_micro", ...
  std::string commit;   // git HEAD at run time, or "unknown"
  std::string host;     // hostname
  std::string cpu;      // /proc/cpuinfo model name, or "unknown"
  int hw_threads = 0;
  std::int64_t generated_unix = 0;  // wall-clock provenance, not compared
  int warmup = 0;  // untimed per-case warmup iterations
  int reps = 0;    // repetitions; reported numbers are the median rep
  std::vector<BenchCase> cases;
};

/// Fills name/warmup/reps and stamps provenance: commit (BASRPT_COMMIT
/// env override, else .git/HEAD), hostname, cpu model, thread count,
/// and the current wall clock.
BenchRecord make_record(const std::string& name, int warmup, int reps);

/// Writes `record` as a kBenchSchema document, pretty-printed with two
/// spaces per level and a trailing newline so committed baselines diff
/// cleanly.
void write_record_file(const std::string& path, const BenchRecord& record);

}  // namespace basrpt::perf
