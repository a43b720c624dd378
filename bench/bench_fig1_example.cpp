// Fig. 1 — the paper's 3-flow hand example of SRPT instability, executed
// on the slotted input-queued switch model.
//
// Expected shape (paper): within the 6-slot window SRPT completes only
// the two 1-packet flows and leaves 1 packet of f1; a backlog-aware
// schedule completes all 7 packets, at a 1-slot delay cost for one
// query.
#include <cstdio>

#include "bench_common.hpp"
#include "run_session.hpp"
#include "sched/factory.hpp"
#include "switchsim/slotted_sim.hpp"
#include "workload/adversarial.hpp"

namespace {

using namespace basrpt;

switchsim::ArrivalStream fig1_stream() {
  std::vector<switchsim::SlottedArrival> slotted;
  for (const auto& a : workload::fig1_example(seconds(1.0), Bytes{1})) {
    slotted.push_back({static_cast<switchsim::Slot>(a.time.seconds), a.src,
                       a.dst, a.size.count, a.cls});
  }
  return switchsim::stream_from_vector(slotted);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_fig1_example", "paper Fig. 1: 3-flow SRPT example");
  if (!bench::parse_common(cli, argc, argv)) {
    return 0;
  }

  std::printf("=== Fig. 1: SRPT vs backlog-aware on the 3-flow example ===\n");
  std::printf(
      "f1: 5 pkts A->C @slot0, f2: 1 pkt A->B @slot0, f3: 1 pkt D->C "
      "@slot1; 6 slots\n\n");

  constexpr switchsim::Slot kSlots = 6;
  bench::RunSession session(cli, "fig1_example", 4,
                            seconds(static_cast<double>(kSlots)));
  stats::Table table({"scheme", "delivered pkts", "left pkts",
                      "flows done", "max query FCT (slots)"});

  exec::Sweep sweep;
  const auto add = [&](const std::string& label,
                       const sched::SchedulerSpec& spec) {
    switchsim::SlottedConfig config;
    config.n_ports = 4;
    config.horizon = kSlots;
    config.sample_every = 1;
    config.watched_dst = 2;
    session.apply(config);
    sweep.add_slotted(
        label, config,
        [spec] { return sched::make_scheduler(spec); },
        fig1_stream,
        [&table, label](const switchsim::SlottedResult& result) {
          const auto q = result.fct.summary(stats::FlowClass::kQuery);
          table.add_row({label, stats::cell(result.delivered_packets),
                         stats::cell(result.left_packets),
                         stats::cell(result.fct.completed_total()),
                         q.completed > 0 ? stats::cell(q.max_seconds, 0)
                                         : "-"});
        });
  };

  add("srpt", sched::SchedulerSpec::srpt());
  add("threshold-srpt(T=4.5)", sched::SchedulerSpec::threshold_srpt(4.5));
  add("fast-basrpt(V=1)", sched::SchedulerSpec::fast_basrpt(1.0));
  // V = 0.5 keeps the objective strictly in f1's favour at slot 0 (V = 1
  // ties the {f1} and {f2} schemes and the tiebreak is arbitrary).
  add("exact-basrpt(V=0.5)", sched::SchedulerSpec::exact_basrpt(0.5));
  session.run_sweep(sweep);

  bench::emit(table, cli);
  std::printf(
      "\npaper: SRPT leaves 1 packet; the backlog-aware schedule clears all"
      " 7,\ncosting one query 1 extra slot (max FCT 2 instead of 1).\n");
  session.finish();
  return 0;
}
