#include "switchsim/slotted_sim.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/interrupt.hpp"
#include "fabric/candidate_cache.hpp"
#include "fabric/flow_lifecycle.hpp"
#include "fault/auditor.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"

namespace basrpt::switchsim {

SlottedResult run_slotted(const SlottedConfig& config,
                          sched::Scheduler& scheduler,
                          const ArrivalStream& arrivals) {
  BASRPT_REQUIRE(config.n_ports >= 1, "need at least one port");
  BASRPT_REQUIRE(config.horizon >= 1, "horizon must be positive");
  BASRPT_REQUIRE(config.sample_every >= 1, "sample period must be positive");
  BASRPT_REQUIRE(config.watched_src >= 0 &&
                     config.watched_src < config.n_ports &&
                     config.watched_dst >= 0 &&
                     config.watched_dst < config.n_ports,
                 "watched VOQ out of range");

  queueing::VoqMatrix voqs(config.n_ports);
  SlottedResult result(config.watched_src, config.watched_dst);
  result.horizon = config.horizon;

  fabric::FlowLifecycle lifecycle(&voqs, result.fct, config.tracer);
  fabric::CandidateCache cache(voqs, /*unit_bytes=*/1.0,
                               scheduler.needs_arrival_lane());
  sched::Decision decision;
  fault::InvariantAuditor auditor("switchsim");

  // Every arrivals() call is counted so a resumed run can replay the
  // deterministic stream to the exact pull the checkpoint was taken at.
  std::uint64_t arrival_pulls = 0;
  auto pull = [&]() {
    ++arrival_pulls;
    return arrivals();
  };
  std::optional<SlottedArrival> pending;
  Slot last_slot_seen = 0;
  if (config.resume_from == nullptr) {
    pending = pull();
    last_slot_seen = pending ? pending->slot : 0;
  }

  obs::Heartbeat heartbeat;
  if (config.heartbeat_wall_sec > 0.0) {
    heartbeat.configure(config.heartbeat_wall_sec);
  }
  fault::Watchdog watchdog;
  if (config.watchdog.enabled()) {
    watchdog.configure(config.watchdog);
  }

  // Fault support. Degraded ports serve on a deterministic duty cycle:
  // each slot a port's credit gains its capacity factor (capped at 1);
  // serving a packet costs one credit at the ingress and one at the
  // egress, so a factor-0.5 port forwards every other slot. Healthy
  // ports pin at credit 1 and never block. A blackout zeroes the credit
  // so the port doesn't spend a pre-fault surplus while dark.
  std::unique_ptr<fault::FaultInjector> injector;
  std::vector<double> credit;
  std::vector<queueing::FlowId> last_selected;  // for suppressed slots
  std::unordered_set<queueing::FlowId> scratch_set;
  std::vector<queueing::Flow> scratch_flows;
  Slot fault_now = 0;  // slot the injector hooks see as "now"
  if (config.fault_plan != nullptr && !config.fault_plan->empty()) {
    BASRPT_REQUIRE(config.fault_plan->max_port() <
                       static_cast<std::int32_t>(config.n_ports),
                   "fault plan references a port outside the fabric");
    credit.assign(static_cast<std::size_t>(config.n_ports), 1.0);
    fault::FaultHooks hooks;
    hooks.on_port_factor = [&cache, &credit](std::int32_t port,
                                             double factor) {
      cache.set_port_usable(static_cast<PortId>(port), factor > 0.0);
      if (factor <= 0.0) {
        credit[static_cast<std::size_t>(port)] = 0.0;
      }
    };
    hooks.on_rearrival = [&](std::int64_t count) {
      // Evict up to `count` parked flows (queued, not in the previous
      // slot's selection) and re-admit their remaining packets.
      scratch_set.clear();
      scratch_set.insert(last_selected.begin(), last_selected.end());
      scratch_flows.clear();
      voqs.for_each_flow([&](const queueing::Flow& f) {
        if (static_cast<std::int64_t>(scratch_flows.size()) >= count ||
            scratch_set.count(f.id) != 0) {
          return;
        }
        scratch_flows.push_back(f);
      });
      for (const queueing::Flow& f : scratch_flows) {
        voqs.remove(f.id);
        lifecycle.requeue(f, static_cast<double>(fault_now));
      }
    };
    injector = std::make_unique<fault::FaultInjector>(
        *config.fault_plan, static_cast<std::int32_t>(config.n_ports),
        std::move(hooks));
    if (config.watchdog.enabled()) {
      // A scripted blackout/control-loss window legitimately freezes
      // progress; the watchdog must wait the window out (see
      // FaultInjector::in_disruption).
      watchdog.set_suppress_when(
          [&injector]() { return injector->in_disruption(); });
    }
  }
  std::int64_t candidates_masked_base = 0;

  /// Top-of-slot snapshot: slot t's processing has not begun, so every
  /// container is at its end-of-slot-(t-1) value. Flows travel in
  /// for_each_flow order; re-adding them in that order rebuilds the
  /// VoqMatrix (and hence the candidate view) bit-identically.
  auto capture = [&](Slot t) {
    SlottedSimState s;
    s.slot = t;
    s.arrival_pulls = arrival_pulls;
    s.has_pending = pending.has_value();
    if (pending) {
      s.pending = *pending;
    }
    s.last_slot_seen = last_slot_seen;
    s.scheduler_invocations = result.scheduler_invocations;
    s.delivered_packets = result.delivered_packets;
    s.scheduler_state = scheduler.checkpoint_state();
    s.lifecycle = lifecycle.state();
    s.flows.reserve(voqs.active_flows());
    voqs.for_each_flow(
        [&s](const queueing::Flow& f) { s.flows.push_back(f); });
    s.fct = result.fct.state();
    s.backlog = result.backlog.state();
    s.drift = result.drift.state();
    s.penalty = result.penalty.state();
    s.backlog_packets = result.backlog_packets.state();
    if (injector != nullptr) {
      s.fault_cursor = injector->cursor();
      s.fault_stats = injector->stats();
      s.credit = credit;
      s.last_selected = last_selected;
      s.candidates_masked_base =
          candidates_masked_base +
          static_cast<std::int64_t>(cache.candidates_masked());
    }
    return s;
  };

  Slot start_slot = 0;
  if (config.resume_from != nullptr) {
    const SlottedSimState& s = *config.resume_from;
    BASRPT_REQUIRE(s.slot >= 0 && s.slot <= config.horizon,
                   "checkpoint slot " + std::to_string(s.slot) +
                       " outside the configured horizon");
    // Replay the deterministic stream up to the checkpointed pull count;
    // the final pull must reproduce the stored pending arrival, or the
    // stream is not the one the checkpoint was taken against.
    for (std::uint64_t i = 0; i < s.arrival_pulls; ++i) {
      pending = pull();
    }
    BASRPT_REQUIRE(pending.has_value() == s.has_pending &&
                       (!pending ||
                        (pending->slot == s.pending.slot &&
                         pending->src == s.pending.src &&
                         pending->dst == s.pending.dst &&
                         pending->size == s.pending.size &&
                         pending->cls == s.pending.cls)),
                   "arrival stream diverged from checkpoint (wrong seed or "
                   "workload config?)");
    last_slot_seen = s.last_slot_seen;
    for (const queueing::Flow& f : s.flows) {
      voqs.add_flow(f);
    }
    lifecycle.restore(s.lifecycle);
    result.fct.restore(s.fct);
    result.backlog.restore(s.backlog);
    result.drift.restore(s.drift);
    result.penalty.restore(s.penalty);
    result.backlog_packets.restore(s.backlog_packets);
    result.scheduler_invocations = s.scheduler_invocations;
    result.delivered_packets = s.delivered_packets;
    scheduler.restore_checkpoint_state(s.scheduler_state);
    if (injector != nullptr) {
      injector->restore_cursor(s.fault_cursor);
      injector->stats() = s.fault_stats;
      BASRPT_REQUIRE(s.credit.size() ==
                         static_cast<std::size_t>(config.n_ports),
                     "checkpoint credit vector does not match port count");
      credit = s.credit;
      last_selected = s.last_selected;
      candidates_masked_base = s.candidates_masked_base;
      // Rebuild derived masking (restore_cursor fires no hooks).
      for (PortId p = 0; p < config.n_ports; ++p) {
        cache.set_port_usable(p, injector->port_usable(p));
      }
    } else {
      BASRPT_REQUIRE(s.fault_cursor == 0 && s.credit.empty(),
                     "checkpoint carries fault state but no plan is attached");
    }
    start_slot = s.slot;
  }

  lifecycle.begin_run();

  for (Slot t = start_slot; t < config.horizon; ++t) {
    if ((t & 63) == 0 && interrupt_requested()) {
      // SIGINT/SIGTERM under a ckpt::SignalGuard: hand the caller a final
      // snapshot (slot boundary, fully consistent) before unwinding.
      if (config.on_checkpoint) {
        config.on_checkpoint(capture(t));
      }
      throw InterruptedError(interrupt_signal());
    }
    if (config.checkpoint_every > 0 && config.on_checkpoint &&
        t > start_slot && t % config.checkpoint_every == 0) {
      config.on_checkpoint(capture(t));
    }
    heartbeat.tick(static_cast<double>(t), static_cast<std::uint64_t>(t));
    try {
      watchdog.tick(static_cast<double>(t), static_cast<std::uint64_t>(t));
    } catch (const fault::StallError&) {
      // Nothing of slot t has run yet, so the snapshot is consistent:
      // a stalled run leaves a resume point behind.
      if (config.on_checkpoint) {
        config.on_checkpoint(capture(t));
      }
      throw;
    }
    if (injector != nullptr) {
      fault_now = t;
      injector->advance_to(static_cast<double>(t));
      for (PortId p = 0; p < config.n_ports; ++p) {
        const auto ip = static_cast<std::size_t>(p);
        credit[ip] = std::min(1.0, credit[ip] + injector->port_factor(p));
      }
    }
    // Admit arrivals stamped with this slot (visible to this decision).
    while (pending && pending->slot <= t) {
      BASRPT_ASSERT(pending->slot >= last_slot_seen,
                    "arrival stream went backwards in time");
      last_slot_seen = pending->slot;
      BASRPT_ASSERT(pending->size > 0, "flow must carry packets");
      lifecycle.admit({pending->src, pending->dst,
                       Bytes{pending->size},  // 1 byte == 1 packet here
                       SimTime{static_cast<double>(pending->slot)},
                       pending->cls});
      pending = pull();
    }

    result.backlog_packets.add(
        static_cast<double>(voqs.total_backlog().count));

    // Decide and serve one packet per selected flow.
    const auto& candidates = cache.refresh();
    decision.selected.clear();
    if (injector != nullptr && injector->decisions_suppressed()) {
      // Control loss: the new decision never reaches the crossbar, so
      // the previous slot's selection persists (minus completed flows —
      // a matching stays a matching under deletion).
      if (!candidates.empty()) {
        ++injector->stats().decisions_suppressed;
      }
      for (const queueing::FlowId id : last_selected) {
        if (voqs.contains(id)) {
          decision.selected.push_back(id);
        }
      }
    } else if (!candidates.empty()) {
      ++result.scheduler_invocations;
      lifecycle.decide(scheduler, config.n_ports, candidates, decision);
      BASRPT_ASSERT(sched::decision_is_matching(decision, voqs),
                    "scheduler violated the crossbar constraint");
    }
    if (injector != nullptr) {
      // Ports without a credit this slot (degraded duty cycle, dark)
      // cannot move a packet; their flows drop out of the served set.
      auto& sel = decision.selected;
      sel.erase(std::remove_if(sel.begin(), sel.end(),
                               [&](queueing::FlowId id) {
                                 const queueing::Flow& f = voqs.flow(id);
                                 const auto si =
                                     static_cast<std::size_t>(f.src);
                                 const auto di =
                                     static_cast<std::size_t>(f.dst);
                                 return credit[si] < 1.0 || credit[di] < 1.0;
                               }),
                sel.end());
      for (const queueing::FlowId id : sel) {
        const queueing::Flow& f = voqs.flow(id);
        credit[static_cast<std::size_t>(f.src)] -= 1.0;
        credit[static_cast<std::size_t>(f.dst)] -= 1.0;
      }
      last_selected = sel;
    }
    const std::vector<queueing::FlowId>& selected = decision.selected;
    lifecycle.apply_decision(selected, static_cast<double>(t));
    if (!selected.empty()) {
      double selected_size = 0.0;
      for (const queueing::FlowId id : selected) {
        selected_size +=
            static_cast<double>(voqs.flow(id).remaining.count);
      }
      result.penalty.add(selected_size /
                         static_cast<double>(selected.size()));
    }
    for (const queueing::FlowId id : selected) {
      const queueing::Flow flow_copy = voqs.flow(id);
      const bool completed = voqs.drain(id, Bytes{1});
      ++result.delivered_packets;
      if (completed) {
        // Flow::arrival stores the arrival slot.
        const Slot fct_slots =
            t - static_cast<Slot>(flow_copy.arrival.seconds) + 1;
        lifecycle.record_completion(flow_copy.cls, flow_copy.id,
                                    flow_copy.src, flow_copy.dst,
                                    flow_copy.size,
                                    SimTime{static_cast<double>(fct_slots)},
                                    static_cast<double>(t));
      }
    }

    if (t % config.sample_every == 0) {
      const SimTime now{static_cast<double>(t)};
      result.backlog.sample(now, voqs);
      result.drift.observe(queueing::lyapunov_value(voqs, 1.0));
      if (config.paranoid) {
        // Admission stores packets as bytes (1 byte == 1 packet), so the
        // lifecycle's byte counter IS the admitted-packet ledger.
        auditor.audit(
            static_cast<double>(t),
            {{"packets",
              {{"packets_arrived", lifecycle.bytes_arrived().count}},
              {{"delivered", result.delivered_packets},
               {"backlog", voqs.total_backlog().count}}},
             {"flows",
              {{"flows_arrived", lifecycle.flows_arrived()}},
              {{"completed", lifecycle.flows_completed()},
               {"active",
                static_cast<std::int64_t>(voqs.active_flows())}}}});
      }
    }
  }

  heartbeat.flush(static_cast<double>(config.horizon),
                  static_cast<std::uint64_t>(config.horizon));
  if (watchdog.active() && obs::enabled()) {
    watchdog.export_metrics(obs::Registry::active(), "switchsim");
  }
  result.left_packets = voqs.total_backlog().count;
  result.left_flows = static_cast<std::int64_t>(voqs.active_flows());
  if (injector != nullptr) {
    result.fault_stats = injector->stats();
    result.fault_stats.flows_requeued = lifecycle.flows_requeued();
    result.fault_stats.candidates_masked =
        candidates_masked_base +
        static_cast<std::int64_t>(cache.candidates_masked());
  }
  return result;
}

ArrivalStream stream_from_vector(std::vector<SlottedArrival> arrivals) {
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    BASRPT_REQUIRE(arrivals[i].slot >= arrivals[i - 1].slot,
                   "slotted arrivals must be sorted by slot");
  }
  auto state = std::make_shared<std::pair<std::vector<SlottedArrival>,
                                          std::size_t>>(std::move(arrivals),
                                                        0);
  return [state]() -> std::optional<SlottedArrival> {
    if (state->second >= state->first.size()) {
      return std::nullopt;
    }
    return state->first[state->second++];
  };
}

}  // namespace basrpt::switchsim
