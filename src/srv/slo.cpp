#include "srv/slo.hpp"

#include <fstream>
#include <ostream>

#include "common/assert.hpp"
#include "common/json_escape.hpp"
#include "obs/metrics.hpp"

namespace basrpt::srv {

namespace {

double ns_to_ms(double ns) { return ns / 1e6; }

void write_tenant_map(std::ostream& out,
                      const std::map<std::int32_t, std::int64_t>& by_tenant) {
  out << "{";
  bool first = true;
  for (const auto& [tenant, count] : by_tenant) {
    out << (first ? "" : ",") << "\"" << tenant << "\":" << count;
    first = false;
  }
  out << "}";
}

}  // namespace

void SloTracker::export_metrics(obs::Registry& registry) const {
  registry.counter("srv.decisions").add(
      static_cast<std::int64_t>(decision_ns_.count()));
  registry.counter("srv.admitted").add(admitted_);
  registry.counter("srv.shed").add(shed_);
  registry.counter("srv.deadline_misses").add(deadline_misses_);
  registry.gauge("srv.queue_depth").set(
      static_cast<double>(queue_depth_last_));
  registry.gauge("srv.queue_depth_peak").set(
      static_cast<double>(queue_depth_peak_));
  registry.histogram("srv.decision_ns").merge_from(decision_ns_);
}

SloTracker::Snapshot SloTracker::snapshot() const {
  Snapshot snap;
  snap.admitted = admitted_;
  snap.shed = shed_;
  snap.queue_depth_peak = queue_depth_peak_;
  snap.last_shed_sec = last_shed_sec_;
  snap.admitted_by_tenant = admitted_by_tenant_;
  snap.shed_by_tenant = shed_by_tenant_;
  return snap;
}

void SloTracker::restore(const Snapshot& snap) {
  admitted_ = snap.admitted;
  shed_ = snap.shed;
  queue_depth_peak_ = snap.queue_depth_peak;
  last_shed_sec_ = snap.last_shed_sec;
  admitted_by_tenant_ = snap.admitted_by_tenant;
  shed_by_tenant_ = snap.shed_by_tenant;
}

void write_slo_json(std::ostream& out, const SloTracker& slo,
                    const HealthMonitor& health, const SloRunTotals& totals) {
  const obs::LatencyHistogram& d = slo.decision_ns();
  const double dps =
      totals.wall_seconds > 0.0
          ? static_cast<double>(d.count()) / totals.wall_seconds
          : 0.0;
  const std::int64_t offered = slo.admitted() + slo.shed();
  const double shed_rate =
      offered > 0 ? static_cast<double>(slo.shed()) /
                        static_cast<double>(offered)
                  : 0.0;

  out << "{\n";
  out << "\"report\":\"basrpt-slo-v1\",\n";
  out << "\"status\":\"" << json_escape(totals.status) << "\",\n";
  out << "\"resumed\":" << (totals.resumed ? "true" : "false") << ",\n";
  out << "\"feed_seconds\":" << totals.feed_seconds << ",\n";
  out << "\"wall_seconds\":" << totals.wall_seconds << ",\n";
  out << "\"decisions\":{"
      << "\"count\":" << d.count() << ",\"per_sec\":" << dps
      << ",\"mean_ms\":" << ns_to_ms(d.mean())
      << ",\"p50_ms\":" << ns_to_ms(d.quantile(0.5))
      << ",\"p99_ms\":" << ns_to_ms(d.quantile(0.99))
      << ",\"p999_ms\":" << ns_to_ms(d.quantile(0.999))
      << ",\"max_ms\":" << ns_to_ms(static_cast<double>(d.max()))
      << ",\"deadline_misses\":" << slo.deadline_misses() << "},\n";
  out << "\"admission\":{"
      << "\"offered\":" << offered << ",\"admitted\":" << slo.admitted()
      << ",\"shed\":" << slo.shed() << ",\"shed_rate\":" << shed_rate
      << ",\"last_shed_sec\":" << slo.last_shed_sec()
      << ",\"admitted_by_tenant\":";
  write_tenant_map(out, slo.admitted_by_tenant());
  out << ",\"shed_by_tenant\":";
  write_tenant_map(out, slo.shed_by_tenant());
  out << "},\n";
  out << "\"queue\":{\"depth_peak\":" << slo.queue_depth_peak() << "},\n";
  out << "\"flows\":{"
      << "\"records_consumed\":" << totals.records_consumed
      << ",\"arrived\":" << totals.flows_arrived
      << ",\"completed\":" << totals.flows_completed
      << ",\"active_at_end\":" << totals.active_flows_at_end << "},\n";
  out << "\"bytes\":{"
      << "\"delivered\":" << totals.delivered_bytes
      << ",\"backlog_at_end\":" << totals.backlog_bytes_at_end << "},\n";
  out << "\"scheduler_invocations\":" << totals.scheduler_invocations
      << ",\n";
  out << "\"health\":{"
      << "\"final_state\":\"" << health_state_name(health.state()) << "\""
      << ",\"shed_entries\":" << health.shed_entries()
      << ",\"probe_delay_sec\":" << health.probe_delay_sec()
      << ",\"transitions\":[";
  bool first = true;
  for (const HealthTransition& t : health.transitions()) {
    out << (first ? "" : ",") << "\n {\"time_sec\":" << t.time_sec
        << ",\"from\":\"" << health_state_name(t.from) << "\",\"to\":\""
        << health_state_name(t.to) << "\",\"reason\":\""
        << json_escape(t.reason) << "\"}";
    first = false;
  }
  out << (first ? "" : "\n") << "]}\n";
  out << "}\n";
}

void write_slo_json_file(const std::string& path, const SloTracker& slo,
                         const HealthMonitor& health,
                         const SloRunTotals& totals) {
  std::ofstream out(path);
  BASRPT_REQUIRE(out.good(), "cannot open SLO report file: " + path);
  write_slo_json(out, slo, health, totals);
  BASRPT_REQUIRE(out.good(), "error while writing SLO report: " + path);
}

}  // namespace basrpt::srv
