// Sustained soak of the basrptd serving core: a scripted diurnal load
// ramp that deliberately crosses 1.0 (0.6 → 1.2 → 0.8 of host-link
// capacity by default), hyperexponential bursts in the overloaded
// middle, and a degraded-link fault window opening inside it — the
// worst plausible hour of a scheduling service, compressed.
//
// What a healthy run shows: the health machine rides healthy →
// (degraded) → shedding through the overload, admission control sheds
// while the backlog is above the watermarks, and once the ramp comes
// back down the service re-probes (with hysteresis — no flapping),
// returns to healthy, and the shed rate goes back to zero. The final
// SLO report (--slo-out) carries the full transition history plus
// decision p99/p999.
//
// Modes:
//   bench_soak                         # in-process soak, report on stdout
//   bench_soak --emit-feed soak.feed   # just materialize the feed
//   bench_soak --pace 2 --ckpt-dir d   # wall-paced; SIGTERM drains,
//                                      # SIGKILL + --resume continues
//   bench_soak --listen uds:/tmp/s --drive
//                                      # socket transport end to end in
//                                      # one process (client thread)
//   bench_soak --listen uds:/tmp/s --drive --chaos-plan links.faults
//                                      # ... through the chaos proxy
//   bench_soak --listen uds:/tmp/s     # serve only; pair with:
//   bench_soak --connect uds:/tmp/s    # client-only driver (separate
//                                      # process; survives server
//                                      # SIGKILL + --resume via replay)
//
// All admission decisions are virtual-time-driven, so two runs of the
// same seed (paced or not, resumed or not, chaos or not) print identical
// deterministic counters — which is exactly what tests/test_srv.cpp's
// kill-and-resume and chaos differentials assert.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "ckpt/signal_guard.hpp"
#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/net.hpp"
#include "fault/chaos_link.hpp"
#include "fault/fault_plan.hpp"
#include "srv/client.hpp"
#include "srv/loadgen.hpp"
#include "srv/server.hpp"
#include "srv/transport.hpp"

namespace {

using namespace basrpt;

/// Degraded-link window inside the overload segment: two host ports at
/// reduced capacity while the fabric is already past saturation.
fault::FaultPlan degraded_link_plan(double duration_sec,
                                    std::int32_t hosts) {
  fault::FaultPlan plan;
  fault::FaultEvent degrade;
  degrade.kind = fault::FaultKind::kDegrade;
  degrade.start = duration_sec * 0.40;
  degrade.duration = duration_sec * 0.15;
  degrade.port = 0 % hosts;
  degrade.factor = 0.4;
  plan.add(degrade);
  degrade.port = 1 % hosts;
  degrade.factor = 0.6;
  plan.add(degrade);
  // A short control-loss blip early in the ramp: the injector reports
  // in_disruption, which the health machine surfaces as the advisory
  // `degraded` state (admission unaffected).
  fault::FaultEvent drop;
  drop.kind = fault::FaultKind::kDropDecisions;
  drop.start = duration_sec * 0.10;
  drop.duration = duration_sec * 0.04;
  plan.add(drop);
  return plan;
}

srv::LoadGenConfig loadgen_config(const CliParser& cli) {
  srv::LoadGenConfig gen;
  const double duration = cli.get_real("duration");
  BASRPT_REQUIRE(duration > 0.0, "soak: --duration must be positive");
  gen.segments = {
      {duration / 3.0, cli.get_real("load-low"), 1.0},
      {duration / 3.0, cli.get_real("load-peak"), 4.0},
      {duration / 3.0, cli.get_real("load-tail"), 1.0},
  };
  gen.racks = static_cast<std::int32_t>(cli.get_integer("racks"));
  gen.hosts_per_rack =
      static_cast<std::int32_t>(cli.get_integer("hosts-per-rack"));
  gen.host_link = mbps(cli.get_real("host-link-mbps"));
  gen.tenants = static_cast<std::int32_t>(cli.get_integer("tenants"));
  gen.seed = static_cast<std::uint64_t>(cli.get_integer("seed"));
  return gen;
}

std::vector<srv::FeedRecord> driver_records(const CliParser& cli,
                                            const srv::LoadGenConfig& gen) {
  if (!cli.get_text("feed").empty()) {
    return srv::read_feed_file(cli.get_text("feed"));
  }
  return srv::generate_feed(gen);
}

/// The proxy's public endpoint, derived from the daemon's: UDS gets a
/// ".chaos" suffix, TCP the next port.
Endpoint chaos_endpoint(Endpoint ep) {
  if (ep.kind == Endpoint::Kind::kUds) {
    ep.path += ".chaos";
  } else {
    ep.port = static_cast<std::uint16_t>(ep.port + 1);
  }
  return ep;
}

void print_client_line(const srv::ClientResult& r) {
  std::printf("soak-client status=%s decisions=%llu admitted=%lld "
              "shed=%lld duplicates=%llu garbled=%llu reconnects=%lld "
              "fences=%lld\n",
              r.status.c_str(),
              static_cast<unsigned long long>(r.decisions),
              static_cast<long long>(r.admitted),
              static_cast<long long>(r.shed),
              static_cast<unsigned long long>(r.duplicates),
              static_cast<unsigned long long>(r.garbled),
              static_cast<long long>(r.reconnects),
              static_cast<long long>(r.fences));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli("bench_soak",
                  "sustained overload/degradation soak of the basrptd "
                  "serving core");
    cli.real("duration", 60.0, "total scripted feed duration (s)")
        .real("load-low", 0.6, "per-host load of the opening segment")
        .real("load-peak", 1.2, "per-host load of the overload segment")
        .real("load-tail", 0.8, "per-host load of the closing segment")
        .integer("racks", 2, "fabric racks")
        .integer("hosts-per-rack", 4, "hosts per rack")
        .real("host-link-mbps", 100.0, "host link rate (Mbit/s)")
        .integer("tenants", 3, "round-robin tenant count")
        .integer("seed", 1, "workload seed")
        .flag("faults", true, "inject the scripted degraded-link window")
        .text("emit-feed", "", "write the feed to this path and exit")
        .text("feed", "", "serve this feed file instead of generating")
        .text("listen", "",
              "serve the feed over a socket: uds:<path> or "
              "tcp:<host>:<port>")
        .flag("drive", false,
              "with --listen: run the producer client on a thread in "
              "this process")
        .text("connect", "",
              "client-only mode: feed the records to this endpoint and "
              "print the decision totals")
        .text("chaos-plan", "",
              "with --listen --drive: proxy the link through "
              "fault::ChaosLink replaying this plan's link-* ops")
        .real("session-idle-sec", 30.0,
              "socket mode: end the session after this long with no "
              "producer (0 = wait forever)")
        .real("client-deadline-sec", 30.0,
              "client modes: max outage before giving up")
        .real("pace", 0.0, "feed seconds per wall second (0 = full speed)")
        .text("ckpt-dir", "", "checkpoint directory ('' disables)")
        .text("run-id", "soak", "checkpoint filename stem")
        .real("ckpt-every-sec", 0.5, "virtual checkpoint cadence (s)")
        .flag("resume", false, "resume from the newest checkpoint")
        .text("slo-out", "", "SLO report path ('' = stdout)")
        .real("quantum-ms", 5.0, "virtual health-update step (ms)")
        .real("shed-enter-mb", 48.0, "backlog (MB) that starts shedding")
        .real("shed-exit-mb", 24.0, "backlog (MB) to stop shedding")
        .real("hysteresis-ms", 250.0, "recovery dwell (ms, virtual)")
        .real("decision-budget-ms", 1.0, "wall budget per decision");
    if (!cli.parse(argc, argv)) {
      return 0;
    }

    const srv::LoadGenConfig gen = loadgen_config(cli);
    const double duration = srv::loadgen_duration(gen);

    if (!cli.get_text("emit-feed").empty()) {
      const std::vector<srv::FeedRecord> records = srv::generate_feed(gen);
      srv::write_feed_file(cli.get_text("emit-feed"), records);
      std::printf("wrote %zu records (%.3g feed-s) to %s\n", records.size(),
                  duration, cli.get_text("emit-feed").c_str());
      return 0;
    }

    if (!cli.get_text("connect").empty()) {
      // Client-only driver: the counters that matter are printed by the
      // serving process; this side reports what came back over the
      // decisions stream.
      srv::ClientConfig ccfg;
      ccfg.endpoint = parse_endpoint(cli.get_text("connect"));
      ccfg.reconnect_deadline_sec = cli.get_real("client-deadline-sec");
      srv::Client client(ccfg);
      const srv::ClientResult r = client.run(driver_records(cli, gen));
      print_client_line(r);
      return 0;
    }

    srv::ServerConfig config;
    config.sim.fabric = topo::small_fabric(gen.racks, gen.hosts_per_rack);
    config.sim.fabric.host_link = gen.host_link;
    config.sim.horizon = seconds(duration + 1.0);
    config.scheduler = sched::SchedulerSpec::fast_basrpt(2500.0);
    config.quantum_sec = cli.get_real("quantum-ms") / 1e3;
    config.decision_budget_ms = cli.get_real("decision-budget-ms");
    config.pace = cli.get_real("pace");
    config.health.shed_enter_backlog_bytes = static_cast<std::int64_t>(
        cli.get_real("shed-enter-mb") * (1 << 20));
    config.health.shed_exit_backlog_bytes = static_cast<std::int64_t>(
        cli.get_real("shed-exit-mb") * (1 << 20));
    config.health.hysteresis_sec = cli.get_real("hysteresis-ms") / 1e3;
    config.ckpt_dir = cli.get_text("ckpt-dir");
    config.run_id = cli.get_text("run-id");
    config.ckpt_every_sec = cli.get_real("ckpt-every-sec");

    fault::FaultPlan plan;
    if (cli.get_flag("faults")) {
      plan = degraded_link_plan(duration, config.sim.fabric.hosts());
      config.sim.fault_plan = &plan;
    }

    // The resume image is loaded before the feed source so the socket
    // transport can advertise the checkpoint cursor in its hello frame.
    std::optional<srv::ServerCkpt> resume_state;
    if (cli.get_flag("resume")) {
      BASRPT_REQUIRE(!config.ckpt_dir.empty(), "--resume needs --ckpt-dir");
      const std::string latest = ckpt::CheckpointManager::latest(
          config.ckpt_dir, config.run_id);
      BASRPT_REQUIRE(!latest.empty(),
                     "--resume: no checkpoint in " + config.ckpt_dir);
      std::fprintf(stderr, "soak: resuming from %s\n", latest.c_str());
      resume_state = srv::read_server_ckpt_file(latest);
    }

    // Build the feed stream: a listener socket, an external file, or the
    // scripted schedule rendered through the real feed codec (so the
    // soak also exercises the parser end to end).
    std::unique_ptr<std::istream> owned_in;
    std::unique_ptr<srv::RecordSource> source;
    fault::FaultPlan chaos_plan;
    std::unique_ptr<fault::ChaosLink> chaos;
    std::thread driver;
    srv::ClientResult drive_result;
    std::exception_ptr drive_error;
    const std::string listen_spec = cli.get_text("listen");
    if (!listen_spec.empty()) {
      srv::TransportConfig tcfg;
      tcfg.endpoint = parse_endpoint(listen_spec);
      tcfg.session_idle_sec = cli.get_real("session-idle-sec");
      tcfg.start_cursor =
          resume_state ? resume_state->feed_records_consumed : 0;
      source = std::make_unique<srv::SocketTransport>(tcfg);

      Endpoint dial_target = tcfg.endpoint;
      if (!cli.get_text("chaos-plan").empty()) {
        chaos_plan = fault::FaultPlan::from_file(cli.get_text("chaos-plan"));
        fault::ChaosLinkConfig lcfg;
        lcfg.listen = chaos_endpoint(tcfg.endpoint);
        lcfg.upstream = tcfg.endpoint;
        lcfg.plan = &chaos_plan;
        chaos = std::make_unique<fault::ChaosLink>(lcfg);
        chaos->start();
        dial_target = lcfg.listen;
        std::fprintf(stderr, "soak: chaos proxy on %s -> %s\n",
                     dial_target.str().c_str(), tcfg.endpoint.str().c_str());
      }
      if (cli.get_flag("drive")) {
        srv::ClientConfig ccfg;
        ccfg.endpoint = dial_target;
        ccfg.reconnect_deadline_sec = cli.get_real("client-deadline-sec");
        std::vector<srv::FeedRecord> records = driver_records(cli, gen);
        driver = std::thread([ccfg, records = std::move(records),
                              &drive_result, &drive_error] {
          try {
            srv::Client client(ccfg);
            drive_result = client.run(records);
          } catch (...) {
            drive_error = std::current_exception();
          }
        });
      }
    } else if (!cli.get_text("feed").empty()) {
      auto file = std::make_unique<std::ifstream>(cli.get_text("feed"));
      BASRPT_REQUIRE(file->good(),
                     "cannot open feed file: " + cli.get_text("feed"));
      owned_in = std::move(file);
      source = std::make_unique<srv::FeedReader>(*owned_in);
    } else {
      std::ostringstream rendered;
      srv::write_feed(rendered, srv::generate_feed(gen));
      owned_in = std::make_unique<std::istringstream>(rendered.str());
      source = std::make_unique<srv::FeedReader>(*owned_in);
    }

    ckpt::SignalGuard guard(/*drain_on_sigterm=*/true);

    std::unique_ptr<srv::Server> server;
    if (resume_state) {
      server = std::make_unique<srv::Server>(config, *resume_state);
    } else {
      server = std::make_unique<srv::Server>(config);
    }

    const srv::ServeResult result = server->serve(*source);

    if (driver.joinable()) {
      driver.join();
      if (drive_error) {
        std::rethrow_exception(drive_error);
      }
      print_client_line(drive_result);
    }
    if (chaos) {
      chaos->stop();
      const fault::ChaosLinkStats& cs = chaos->stats();
      std::fprintf(stderr,
                   "soak: chaos connections=%lld resets=%lld "
                   "corrupted=%lld stalls=%lld dups=%lld\n",
                   static_cast<long long>(cs.connections),
                   static_cast<long long>(cs.resets),
                   static_cast<long long>(cs.corrupted_bytes),
                   static_cast<long long>(cs.stalls),
                   static_cast<long long>(cs.dup_frames));
    }

    if (cli.get_text("slo-out").empty()) {
      srv::write_slo_json(std::cout, server->slo(), server->health(),
                          result.totals);
    } else {
      srv::write_slo_json_file(cli.get_text("slo-out"), server->slo(),
                               server->health(), result.totals);
    }

    // Deterministic counters — identical across paced/unpaced/resumed/
    // chaos runs of the same seed (the kill-and-resume and chaos
    // differentials' anchor).
    std::printf("soak status=%s feed_s=%.6g records=%lld admitted=%lld "
                "shed=%lld shed_entries=%lld completed=%lld "
                "delivered=%lld final=%s\n",
                result.totals.status.c_str(), result.totals.feed_seconds,
                static_cast<long long>(result.totals.records_consumed),
                static_cast<long long>(server->slo().admitted()),
                static_cast<long long>(server->slo().shed()),
                static_cast<long long>(server->health().shed_entries()),
                static_cast<long long>(result.totals.flows_completed),
                static_cast<long long>(result.totals.delivered_bytes),
                srv::health_state_name(server->health().state()));
    return result.exit_code;
  } catch (const basrpt::ConfigError& e) {
    std::fprintf(stderr, "bench_soak: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_soak: %s\n", e.what());
    return 1;
  }
}
