#include "perf/bench_record.hpp"

#include <unistd.h>

#include <ctime>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <thread>

#include "common/assert.hpp"
#include "common/json_escape.hpp"

namespace basrpt::perf {

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return "";
  }
  std::string line;
  std::getline(in, line);
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.pop_back();
  }
  return line;
}

std::string detect_commit() {
  if (const char* env = std::getenv("BASRPT_COMMIT")) {
    return env;
  }
  // Best effort, repo-root invocation assumed (how the benches run).
  const std::string head = read_first_line(".git/HEAD");
  if (head.rfind("ref: ", 0) == 0) {
    const std::string sha = read_first_line(".git/" + head.substr(5));
    return sha.empty() ? "unknown" : sha;
  }
  return head.empty() ? "unknown" : head;
}

std::string detect_hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    return buf;
  }
  return "unknown";
}

std::string detect_cpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') {
          ++start;
        }
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Writes a case's params or metrics object, one member per line, or
/// `{}` when it is empty.
template <typename Value, typename WriteValue>
void write_case_members(
    std::ostream& out,
    const std::vector<std::pair<std::string, Value>>& members,
    WriteValue write_value) {
  if (members.empty()) {
    out << "{}";
    return;
  }
  const char* sep = "{\n";
  for (const auto& [key, value] : members) {
    out << sep << "        \"" << json_escape(key) << "\": ";
    write_value(value);
    sep = ",\n";
  }
  out << "\n      }";
}

void write_record(std::ostream& out, const BenchRecord& r) {
  const auto num = [](auto v) { return json_number(static_cast<double>(v)); };
  out << "{\n  \"schema\": \"" << kBenchSchema
      << "\",\n  \"name\": \"" << json_escape(r.name)
      << "\",\n  \"commit\": \"" << json_escape(r.commit)
      << "\",\n  \"host\": {\n    \"hostname\": \"" << json_escape(r.host)
      << "\",\n    \"cpu\": \"" << json_escape(r.cpu)
      << "\",\n    \"hw_threads\": " << num(r.hw_threads)
      << "\n  },\n  \"generated_unix\": " << num(r.generated_unix)
      << ",\n  \"warmup\": " << num(r.warmup)
      << ",\n  \"reps\": " << num(r.reps) << ",\n  \"cases\": ";
  if (r.cases.empty()) {
    out << "[]";
  } else {
    const char* sep = "[\n";
    for (const BenchCase& c : r.cases) {
      out << sep << "    {\n      \"label\": \"" << json_escape(c.label)
          << "\",\n      \"params\": ";
      write_case_members(out, c.params, [&](const std::string& v) {
        out << '"' << json_escape(v) << '"';
      });
      out << ",\n      \"metrics\": ";
      write_case_members(out, c.metrics,
                         [&](double v) { out << json_number(v); });
      out << "\n    }";
      sep = ",\n";
    }
    out << "\n  ]";
  }
  out << "\n}\n";
}

}  // namespace

BenchRecord make_record(const std::string& name, int warmup, int reps) {
  BenchRecord record;
  record.name = name;
  record.warmup = warmup;
  record.reps = reps;
  record.commit = detect_commit();
  record.host = detect_hostname();
  record.cpu = detect_cpu();
  const unsigned hw = std::thread::hardware_concurrency();
  record.hw_threads = hw > 0 ? static_cast<int>(hw) : 1;
  record.generated_unix = static_cast<std::int64_t>(std::time(nullptr));
  return record;
}

void write_record_file(const std::string& path, const BenchRecord& record) {
  std::ofstream out(path);
  BASRPT_REQUIRE(out.good(), "cannot open bench record file: " + path);
  write_record(out, record);
  out.flush();
  BASRPT_REQUIRE(out.good(), "failed writing bench record file: " + path);
}

}  // namespace basrpt::perf
