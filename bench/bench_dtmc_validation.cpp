// Model validation: the exact 2x2 DTMC (Sec. III's chain, solved by
// power iteration) vs the slotted simulator, across loads and policies.
//
// Agreement here certifies that the simulator implements Eq. (1)
// faithfully — an analytic cross-check independent of any scheduler
// code path the experiments exercise.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "run_session.hpp"
#include "queueing/dtmc.hpp"
#include "sched/factory.hpp"
#include "switchsim/arrivals.hpp"
#include "switchsim/slotted_sim.hpp"

int main(int argc, char** argv) {
  using namespace basrpt;

  CliParser cli("bench_dtmc_validation",
                "analytic 2x2 chain vs slotted simulator");
  cli.integer("slots", 400000, "simulator horizon in slots")
      .integer("cap", 16, "chain truncation per VOQ");
  if (!bench::parse_common(cli, argc, argv)) {
    return 0;
  }
  const auto slots = static_cast<switchsim::Slot>(cli.get_integer("slots"));
  const auto cap = static_cast<std::int32_t>(cli.get_integer("cap"));
  const auto seed = static_cast<std::uint64_t>(cli.get_integer("seed"));

  // The analytic half (power iteration) has no resumable state, so the
  // sim half alone cannot honour a checkpoint of "the bench's work".
  bench::RunSession session(cli, "dtmc_validation", 2,
                            seconds(static_cast<double>(slots)),
                            bench::RunSession::Checkpointing::kNone);
  std::printf("=== 2x2 DTMC vs simulator: mean total queue (packets) ===\n");
  stats::Table table({"load/port", "chain E[Q]", "sim E[Q]", "sim/chain",
                      "chain P(cap)"});

  exec::Sweep sweep;
  for (const double per_voq : {0.15, 0.25, 0.35, 0.42}) {
    queueing::Dtmc2x2Config chain_config;
    chain_config.arrival_prob = {{{per_voq, per_voq}, {per_voq, per_voq}}};
    chain_config.cap = cap;
    const auto chain = queueing::solve_2x2_chain(chain_config);

    std::vector<std::vector<double>> rates = {{per_voq, per_voq},
                                              {per_voq, per_voq}};
    switchsim::SizeMix unit;
    unit.small = 1;
    unit.large = 1;
    unit.p_small = 1.0;
    switchsim::SlottedConfig sim_config;
    sim_config.n_ports = 2;
    sim_config.horizon = slots;
    sim_config.watched_dst = 1;
    session.apply(sim_config);
    sweep.add_slotted(
        "load " + stats::cell(2 * per_voq, 2), sim_config,
        [] {
          return sched::make_scheduler(sched::SchedulerSpec::maxweight());
        },
        [rates, unit, slots, seed] {
          return switchsim::bernoulli_arrivals(rates, unit, slots, Rng(seed));
        },
        [&, per_voq, chain](const switchsim::SlottedResult& sim) {
          table.add_row({stats::cell(2 * per_voq, 2),
                         stats::cell(chain.mean_total_queue, 3),
                         stats::cell(sim.backlog_packets.mean(), 3),
                         stats::cell(sim.backlog_packets.mean() /
                                         chain.mean_total_queue,
                                     3),
                         stats::cell(chain.mass_at_cap, 6)});
          session.progress("load %.2f done (chain iters %d)\n", 2 * per_voq,
                           chain.iterations);
        });
  }
  session.run_sweep(sweep);
  bench::emit(table, cli);
  std::printf(
      "\nexpected: sim/chain ratios within a few percent wherever the "
      "truncation mass\nP(cap) is negligible; deviations at the highest "
      "load measure truncation, not bugs.\n");
  session.finish();
  return 0;
}
