// Machine-readable benchmark records: the basrpt-bench-v1 schema.
//
// A record is one benchmark binary's worth of measured cases — e.g.
// bench_sched_micro's decide loop per scheduler per port count — plus
// enough provenance (commit, host fingerprint, repetition discipline)
// to judge whether two records are comparable. Records are written to
// BENCH_<name>.json; committed baselines live at the repo root and the
// regression gate (scripts/perf_gate.py) diffs fresh runs against them.
// See docs/PERF.md for the schema and the metric naming convention the
// gate's direction inference relies on.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "perf/json.hpp"

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
  /// nullptr when absent.
  const double* find_metric(const std::string& key) const;
};

struct BenchRecord {
  std::string schema = kBenchSchema;
  std::string name;     // bench identity: "sched_micro", ...
  std::string commit;   // git HEAD at run time, or "unknown"
  std::string host;     // hostname
  std::string cpu;      // /proc/cpuinfo model name, or "unknown"
  int hw_threads = 0;
  std::int64_t generated_unix = 0;  // wall-clock provenance, not compared
  int warmup = 0;  // untimed per-case warmup iterations
  int reps = 0;    // repetitions; reported numbers are the median rep
  std::vector<BenchCase> cases;

  const BenchCase* find_case(const std::string& label) const;
};

/// Fills name/warmup/reps and stamps provenance: commit (BASRPT_COMMIT
/// env override, else .git/HEAD), hostname, cpu model, thread count,
/// and the current wall clock.
BenchRecord make_record(const std::string& name, int warmup, int reps);

json::Value record_to_json(const BenchRecord& record);

/// Validating reader: rejects a wrong/missing schema tag, missing
/// required fields, duplicate case labels, and mistyped members with
/// ConfigError; byte-level corruption surfaces as the JSON parser's
/// line-numbered ParseError. Unknown members are ignored (forward
/// compatibility within v1).
BenchRecord record_from_json(const json::Value& doc,
                             const std::string& context);

void write_record_file(const std::string& path, const BenchRecord& record);
BenchRecord read_record_file(const std::string& path);

}  // namespace basrpt::perf
