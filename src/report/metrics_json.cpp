#include "report/metrics_json.hpp"

#include <fstream>
#include <ostream>

#include "common/assert.hpp"
#include "common/json_escape.hpp"

namespace basrpt::report {

namespace {

void write_histogram_json(std::ostream& out,
                          const obs::LatencyHistogram& h) {
  out << "{\"count\":" << h.count() << ",\"sum\":" << h.sum()
      << ",\"min\":" << h.min() << ",\"max\":" << h.max()
      << ",\"mean\":" << h.mean() << ",\"p50\":" << h.quantile(0.5)
      << ",\"p90\":" << h.quantile(0.9) << ",\"p99\":" << h.quantile(0.99)
      << ",\"p999\":" << h.quantile(0.999)
      << ",\"p9999\":" << h.quantile(0.9999) << ",\"buckets\":[";
  bool first = true;
  for (std::size_t k = 0; k < obs::LatencyHistogram::kBuckets; ++k) {
    if (h.bucket_count(k) == 0) {
      continue;
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"lo\":" << obs::LatencyHistogram::bucket_lower(k)
        << ",\"count\":" << h.bucket_count(k) << "}";
  }
  out << "]}";
}

/// Note values are free-form text (stall diagnostics carry commas), so
/// CSV cells holding them are RFC-4180-quoted.
std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else if (c == '\n' || c == '\r') {
      out += ' ';  // keep the file line-oriented for grep
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  BASRPT_REQUIRE(out.good(), "cannot open metrics output file: " + path);
  return out;
}

}  // namespace

void write_metrics_json(std::ostream& out, const obs::Registry& registry,
                        const std::string& status) {
  out << "{\n\"status\":\"" << json_escape(status) << "\",\n\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : registry.counters()) {
    out << (first ? "" : ",") << "\n\"" << json_escape(name)
        << "\":" << counter.value();
    first = false;
  }
  out << "\n},\n\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : registry.gauges()) {
    out << (first ? "" : ",") << "\n\"" << json_escape(name)
        << "\":{\"value\":" << gauge.value() << ",\"max\":" << gauge.max()
        << "}";
    first = false;
  }
  out << "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : registry.histograms()) {
    out << (first ? "" : ",") << "\n\"" << json_escape(name) << "\":";
    write_histogram_json(out, hist);
    first = false;
  }
  out << "\n},\n\"notes\":{";
  first = true;
  for (const auto& [name, note] : registry.notes()) {
    out << (first ? "" : ",") << "\n\"" << json_escape(name) << "\":\""
        << json_escape(note) << "\"";
    first = false;
  }
  out << "\n}\n}\n";
}

void write_metrics_csv(std::ostream& out, const obs::Registry& registry,
                       const std::string& status) {
  out << "kind,name,field,value\n";
  out << "run,status,," << status << "\n";
  for (const auto& [name, counter] : registry.counters()) {
    out << "counter," << name << ",value," << counter.value() << "\n";
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    out << "gauge," << name << ",value," << gauge.value() << "\n";
    out << "gauge," << name << ",max," << gauge.max() << "\n";
  }
  for (const auto& [name, hist] : registry.histograms()) {
    out << "histogram," << name << ",count," << hist.count() << "\n";
    out << "histogram," << name << ",sum," << hist.sum() << "\n";
    out << "histogram," << name << ",min," << hist.min() << "\n";
    out << "histogram," << name << ",max," << hist.max() << "\n";
    out << "histogram," << name << ",mean," << hist.mean() << "\n";
    out << "histogram," << name << ",p50," << hist.quantile(0.5) << "\n";
    out << "histogram," << name << ",p90," << hist.quantile(0.9) << "\n";
    out << "histogram," << name << ",p99," << hist.quantile(0.99) << "\n";
    out << "histogram," << name << ",p999," << hist.quantile(0.999) << "\n";
    out << "histogram," << name << ",p9999," << hist.quantile(0.9999) << "\n";
  }
  for (const auto& [name, note] : registry.notes()) {
    out << "note," << name << ",value," << csv_quote(note) << "\n";
  }
}

void write_metrics_json_file(const std::string& path,
                             const obs::Registry& registry,
                             const std::string& status) {
  auto out = open_or_throw(path);
  write_metrics_json(out, registry, status);
}

void write_metrics_csv_file(const std::string& path,
                            const obs::Registry& registry,
                            const std::string& status) {
  auto out = open_or_throw(path);
  write_metrics_csv(out, registry, status);
}

void write_metrics_file(const std::string& path,
                        const obs::Registry& registry,
                        const std::string& status) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    write_metrics_csv_file(path, registry, status);
  } else {
    write_metrics_json_file(path, registry, status);
  }
}

}  // namespace basrpt::report
