// Shared scaffolding for the per-figure bench harnesses.
//
// Every bench supports two scales:
//  * quick (default): 24-host fabric (4 racks x 6 hosts), horizons of a
//    few simulated seconds — runs on a laptop in minutes and shows the
//    same qualitative shapes;
//  * --full: the paper's setup — 144 hosts (12 x 12), 3 cores, and long
//    horizons. Expect hours of wall-clock.
//
// The paper's V values were tuned for N = 144; fast BASRPT's key is
// (V/N)·size − backlog, so quick-scale runs use core::scale_v to keep
// V/N — and hence the FCT/stability tradeoff — unchanged. Tables report
// the paper-equivalent V.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.hpp"
#include "core/experiment.hpp"
#include "stats/table.hpp"

namespace basrpt::bench {

struct Scale {
  topo::FabricConfig fabric;
  SimTime stability_horizon;  // queue-evolution experiments (Figs 2, 5, 7)
  SimTime fct_horizon;        // FCT experiments (Table I, Figs 6, 8)
  bool full = false;
};

inline Scale make_scale(bool full) {
  Scale scale;
  scale.full = full;
  if (full) {
    scale.fabric = topo::paper_fabric();
    scale.stability_horizon = seconds(500.0);
    scale.fct_horizon = seconds(60.0);
  } else {
    scale.fabric = topo::small_fabric(4, 6, 3);
    scale.stability_horizon = seconds(8.0);
    // FCT statistics are also collected at 8 s: fast BASRPT's queue
    // plateau at quick scale takes ~5-6 s to reach, and FCTs sampled
    // before it are transient.
    scale.fct_horizon = seconds(8.0);
  }
  return scale;
}

/// Registers the flags every harness shares; returns after cli.parse so
/// callers can add their own flags *before* calling this. A malformed
/// command line (unknown / duplicate / unparsable option) prints the
/// error plus the usage text and exits 2 — sweep scripts fail fast with
/// an actionable message instead of an uncaught-exception abort.
inline bool parse_common(CliParser& cli, int argc, const char* const* argv) {
  cli.flag("full", false, "paper scale: 144 hosts, long horizons")
      .flag("csv", false, "emit CSV instead of the pretty table")
      .integer("seed", 1, "workload RNG seed")
      .real("horizon", 0.0, "override simulated seconds (0 = preset)")
      .text("metrics", "",
            "write run-health metrics here (.csv for CSV, else JSON)")
      .text("trace", "",
            "write flow-lifecycle trace here (.jsonl for JSONL, else "
            "Chrome trace-event JSON for Perfetto)")
      .real("heartbeat", 0.0,
            "log sim progress every N wall-seconds (0 = off)")
      .text("fault-plan", "",
            "inject faults: a basrpt-faults-v1 file, or 'random' for a "
            "seeded schedule (see --fault-seed)")
      .integer("fault-seed", 1, "seed for --fault-plan=random")
      .real("watchdog", 0.0,
            "abort with diagnostics after N wall-seconds of frozen "
            "sim-time (0 = off)")
      .flag("paranoid", false,
            "audit conservation ledgers at every sampling instant; abort "
            "on the first imbalance")
      .text("checkpoint-dir", "",
            "write crash-safe checkpoints here (see docs/CHECKPOINT.md); "
            "empty disables")
      .integer("checkpoint-every", 0,
               "checkpoint cadence: completed cells for figure benches, "
               "slots for slotted benches (0 = per cell / on interrupt)")
      .text("resume", "",
            "resume from a checkpoint file, or 'latest' to pick the "
            "newest in --checkpoint-dir")
      .integer("jobs", 1,
               "run sweep cells on N threads (0 = all cores); output is "
               "bit-identical at any value (see docs/PARALLEL.md)")
      .flag("profile", false,
            "time hot-path phases (decide, lifecycle, calendar, repack, "
            "checkpoint) and print a breakdown; sequential only "
            "(see docs/PERF.md)")
      .text("profile-out", "",
            "write the basrpt-profile-v1 JSON breakdown here (implies "
            "--profile)");
  try {
    return cli.parse(argc, argv);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(), cli.usage().c_str());
    std::exit(2);
  }
}

inline Scale scale_from_cli(const CliParser& cli) {
  Scale scale = make_scale(cli.get_flag("full"));
  const double horizon = cli.get_real("horizon");
  if (horizon > 0.0) {
    scale.stability_horizon = seconds(horizon);
    scale.fct_horizon = seconds(horizon);
  }
  return scale;
}

inline core::ExperimentConfig base_config(const Scale& scale,
                                          const CliParser& cli) {
  core::ExperimentConfig config;
  config.fabric = scale.fabric;
  config.seed = static_cast<std::uint64_t>(cli.get_integer("seed"));
  return config;
}

inline void emit(const stats::Table& table, const CliParser& cli) {
  std::printf("%s",
              cli.get_flag("csv") ? table.render_csv().c_str()
                                  : table.render().c_str());
}

/// Paper-equivalent V → effective V for this fabric.
inline double effective_v(double paper_v, const Scale& scale) {
  return core::scale_v(paper_v, scale.fabric.hosts());
}

inline void print_header(const std::string& what, const Scale& scale) {
  std::printf("=== %s ===\n", what.c_str());
  std::printf("fabric: %d hosts (%d racks x %d), %s mode\n",
              scale.fabric.hosts(), scale.fabric.racks,
              scale.fabric.hosts_per_rack, scale.full ? "FULL" : "quick");
}

}  // namespace basrpt::bench
