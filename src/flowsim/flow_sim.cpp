#include "flowsim/flow_sim.hpp"
#include "flowsim/online.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "fabric/candidate_cache.hpp"
#include "fabric/flow_lifecycle.hpp"
#include "fault/auditor.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "topo/fabric_rates.hpp"

namespace basrpt::flowsim {

namespace {

/// Slack for floating-point drain rounding when a completion event
/// fires: the sum of llround errors across the advances of one service
/// period is a few bytes at most.
constexpr std::int64_t kCompletionSlackBytes = 64;

class Engine {
 public:
  /// `traffic` may be null: the online façade pushes arrivals via
  /// offer() instead of pulling them from a source.
  Engine(const FlowSimConfig& config, sched::Scheduler& scheduler,
         workload::TrafficSource* traffic)
      : config_(config),
        scheduler_(scheduler),
        traffic_(traffic),
        fabric_(config.fabric),
        voqs_(static_cast<PortId>(config.fabric.hosts())),
        result_(config.watched_src, config.watched_dst),
        lifecycle_(&voqs_, result_.fct, config.tracer),
        cache_(voqs_, config.packet_bytes, scheduler.needs_arrival_lane()) {
    BASRPT_REQUIRE(config.horizon.seconds > 0.0, "horizon must be positive");
    BASRPT_REQUIRE(config.packet_bytes > 0.0,
                   "packet size must be positive");
    BASRPT_REQUIRE(config.watched_src >= 0 &&
                       config.watched_src < fabric_.hosts() &&
                       config.watched_dst >= 0 &&
                       config.watched_dst < fabric_.hosts(),
                   "watched VOQ out of range");
    if (config.fault_plan != nullptr && !config.fault_plan->empty()) {
      BASRPT_REQUIRE(config.fault_plan->max_port() <
                         static_cast<std::int32_t>(fabric_.hosts()),
                     "fault plan references a port outside the fabric");
      fault::FaultHooks hooks;
      hooks.on_port_factor = [this](std::int32_t port, double factor) {
        cache_.set_port_usable(static_cast<PortId>(port), factor > 0.0);
      };
      hooks.on_rearrival = [this](std::int64_t count) {
        do_rearrival(count);
      };
      injector_ = std::make_unique<fault::FaultInjector>(
          *config.fault_plan, static_cast<std::int32_t>(fabric_.hosts()),
          std::move(hooks));
    }
  }

  FlowSimResult run() {
    begin(nullptr);
    sim::schedule_periodic(
        events_, SimTime{0.0}, config_.sample_every, config_.horizon,
        [this](SimTime now) {
          advance(now);
          result_.backlog.sample(now, voqs_);
          result_.delivered_trace.add(
              now, static_cast<double>(result_.delivered.count));
          if (config_.paranoid) {
            audit_conservation(now);
          }
        });
    events_.run_until(config_.horizon);
    advance(config_.horizon);
    return finalize(config_.horizon);
  }

  // ---- Online stepping interface (flowsim/online.hpp façade) ------------

  /// Arms heartbeat/watchdog/faults and, when `resume` is set, rebuilds
  /// the captured state before any calendar event exists (the clock jump
  /// must not execute fault transitions the checkpoint already applied).
  /// The batch run() calls this with null; the event-scheduling order it
  /// performs (faults, then the first arrival) is the original one, so
  /// batch results are unchanged.
  void begin(const OnlineSimState* resume) {
    if (config_.heartbeat_wall_sec > 0.0) {
      events_.set_heartbeat(config_.heartbeat_wall_sec);
    }
    if (config_.watchdog.enabled()) {
      watchdog_.configure(config_.watchdog);
      watchdog_.set_diagnostics([this]() { return stall_diagnostics(); });
      if (injector_ != nullptr) {
        // A scripted blackout/control-loss window can legitimately freeze
        // sim time (nothing drains, decisions are dropped); that is the
        // plan working, not a stall.
        watchdog_.set_suppress_when(
            [this]() { return injector_->in_disruption(); });
      }
      events_.set_watchdog(&watchdog_);
    }
    lifecycle_.begin_run();
    if (resume != nullptr) {
      restore_online(*resume);
    }
    if (injector_ != nullptr) {
      schedule_next_fault();
    }
    schedule_next_arrival();
    if (resume != nullptr) {
      // Regenerate the serving set and its completion event from the
      // restored queues. Not counted as a decision: at a decision
      // boundary it recomputes exactly what the captured run had just
      // decided, so the restored counter must match the original's.
      reschedule();
      result_.scheduler_invocations = resume->scheduler_invocations;
    }
  }

  void offer(const workload::FlowArrival& a) {
    BASRPT_REQUIRE(a.time.seconds >= events_.now().seconds,
                   "offered arrival is in the simulated past");
    BASRPT_REQUIRE(a.time.seconds <= config_.horizon.seconds,
                   "offered arrival is beyond the scheduling horizon");
    BASRPT_REQUIRE(a.size.count > 0, "offered flow must carry bytes");
    BASRPT_REQUIRE(a.src >= 0 && a.src < fabric_.hosts() && a.dst >= 0 &&
                       a.dst < fabric_.hosts(),
                   "offered flow references a port outside the fabric");
    BASRPT_REQUIRE(a.src != a.dst,
                   "offered flow has identical source and destination");
    events_.schedule_at(a.time, [this, a]() { on_arrival(a); });
  }

  void advance_to(SimTime t) {
    BASRPT_REQUIRE(t.seconds >= events_.now().seconds,
                   "advance_to went backwards");
    events_.run_until(t);
    advance(t);
  }

  SimTime now() const { return events_.now(); }
  std::size_t active_flows() const { return voqs_.active_flows(); }
  Bytes backlog() const { return voqs_.total_backlog(); }
  std::int64_t flows_arrived() const { return lifecycle_.flows_arrived(); }
  std::int64_t flows_completed() const {
    return lifecycle_.flows_completed();
  }
  Bytes delivered() const { return result_.delivered; }
  std::uint64_t scheduler_invocations() const {
    return result_.scheduler_invocations;
  }
  const stats::FctAggregator& fct() const { return result_.fct; }
  bool in_disruption() const {
    return injector_ != nullptr && injector_->in_disruption();
  }
  fault::FaultStats fault_stats() const {
    return injector_ != nullptr ? injector_->stats() : fault::FaultStats{};
  }

  OnlineSimState capture() const {
    BASRPT_REQUIRE(!refresh_pending_,
                   "capture with a batched reschedule pending (online "
                   "checkpoints require min_reschedule_gap == 0)");
    OnlineSimState s;
    s.now_sec = events_.now().seconds;
    s.scheduler_invocations = result_.scheduler_invocations;
    s.delivered_bytes = result_.delivered.count;
    s.scheduler_state = scheduler_.checkpoint_state();
    s.lifecycle = lifecycle_.state();
    s.flows.reserve(voqs_.active_flows());
    voqs_.for_each_flow(
        [&s](const queueing::Flow& f) { s.flows.push_back(f); });
    s.fct = result_.fct.state();
    if (injector_ != nullptr) {
      s.fault_cursor = injector_->cursor();
      s.fault_stats = injector_->stats();
      s.candidates_masked_base =
          candidates_masked_base_ +
          static_cast<std::int64_t>(cache_.candidates_masked());
    }
    return s;
  }

  FlowSimResult finish_online() {
    advance(events_.now());
    return finalize(events_.now());
  }

 private:
  /// Rebuilds captured state into this freshly constructed engine. Runs
  /// before any event is scheduled: the run_until below only jumps the
  /// clock.
  void restore_online(const OnlineSimState& s) {
    BASRPT_REQUIRE(s.now_sec <= config_.horizon.seconds,
                   "checkpoint time is beyond the configured horizon");
    events_.run_until(SimTime{s.now_sec});
    last_advance_ = SimTime{s.now_sec};
    last_reschedule_ = SimTime{s.now_sec};
    lifecycle_.restore(s.lifecycle);
    for (const queueing::Flow& f : s.flows) {
      voqs_.add_flow(f);
    }
    result_.fct.restore(s.fct);
    result_.delivered = Bytes{s.delivered_bytes};
    scheduler_.restore_checkpoint_state(s.scheduler_state);
    if (injector_ != nullptr) {
      injector_->restore_cursor(static_cast<std::size_t>(s.fault_cursor));
      injector_->stats() = s.fault_stats;
      // Rebuild derived masking (restore_cursor fires no hooks).
      for (PortId p = 0; p < fabric_.hosts(); ++p) {
        cache_.set_port_usable(p, injector_->port_usable(p));
      }
      candidates_masked_base_ = s.candidates_masked_base;
    } else {
      BASRPT_REQUIRE(s.fault_cursor == 0,
                     "checkpoint carries fault state but no plan is "
                     "attached");
    }
  }

  FlowSimResult finalize(SimTime horizon) {
    if (watchdog_.active() && obs::enabled()) {
      watchdog_.export_metrics(obs::Registry::active(), "flowsim");
    }
    result_.horizon = horizon;
    result_.flows_arrived = lifecycle_.flows_arrived();
    result_.bytes_arrived = lifecycle_.bytes_arrived();
    result_.flows_completed = lifecycle_.flows_completed();
    result_.flows_left = static_cast<std::int64_t>(voqs_.active_flows());
    result_.bytes_left = voqs_.total_backlog();
    if (injector_ != nullptr) {
      result_.fault_stats = injector_->stats();
      result_.fault_stats.flows_requeued = lifecycle_.flows_requeued();
      result_.fault_stats.candidates_masked =
          candidates_masked_base_ +
          static_cast<std::int64_t>(cache_.candidates_masked());
    }
    return std::move(result_);
  }
  struct Serving {
    FlowId id;
    queueing::FlowRef ref;  // slot handle; revalidated before every use
    double rate_bps;
  };

  void schedule_next_arrival() {
    if (traffic_ == nullptr) {
      return;  // online mode: arrivals are pushed via offer()
    }
    auto arrival = traffic_->next();
    if (!arrival || arrival->time > config_.horizon) {
      return;
    }
    const workload::FlowArrival a = *arrival;
    events_.schedule_at(a.time, [this, a]() { on_arrival(a); });
  }

  void on_arrival(const workload::FlowArrival& a) {
    advance(events_.now());

    BASRPT_ASSERT(a.size.count > 0, "arriving flow must carry bytes");
    lifecycle_.admit({a.src, a.dst, a.size, a.time, a.cls});

    schedule_next_arrival();

    // Arrival-driven updates may be batched (config.min_reschedule_gap);
    // completion-driven ones never are.
    const double gap = config_.min_reschedule_gap.seconds;
    if (gap > 0.0 && !serving_.empty() &&
        events_.now().seconds - last_reschedule_.seconds < gap) {
      if (!refresh_pending_) {
        refresh_pending_ = true;
        events_.schedule_at(last_reschedule_ + config_.min_reschedule_gap,
                            [this]() {
                              refresh_pending_ = false;
                              advance(events_.now());
                              reschedule();
                            });
      }
      return;
    }
    reschedule();
  }

  void on_completion(std::uint64_t generation, FlowId target) {
    if (generation != schedule_generation_) {
      return;  // stale wakeup from a superseded decision
    }
    advance(events_.now());

    const queueing::FlowSlot slot = voqs_.slot_of(target);
    if (slot != queueing::kNoSlot) {
      const Bytes residual = voqs_.flow_at(slot).remaining;
      if (injector_ != nullptr && residual.count > kCompletionSlackBytes) {
        // A fault clamped this flow's rate after the completion was
        // estimated (suppression windows keep stale estimates alive), so
        // the flow is not actually done. Rescheduling re-estimates.
        reschedule();
        return;
      }
      // advance() drained the analytically exact amount up to rounding;
      // retire the residual dust explicitly.
      BASRPT_ASSERT(residual.count <= kCompletionSlackBytes,
                    "completion event fired with substantial bytes left");
      const queueing::Flow copy = voqs_.flow_at(slot);
      voqs_.drain_at(slot, residual);
      result_.delivered += residual;
      record_completion(copy, events_.now());
    }
    reschedule();
  }

  // ---- Fault injection --------------------------------------------------

  /// Schedules the next fault transition as a calendar event; the chain
  /// self-renews from pump_faults(). Transitions beyond the horizon are
  /// irrelevant and dropped.
  void schedule_next_fault() {
    const double t = injector_->next_transition_after(events_.now().seconds);
    if (std::isfinite(t) && t <= config_.horizon.seconds) {
      events_.schedule_at(SimTime{t}, [this]() { pump_faults(); });
    }
  }

  void pump_faults() {
    advance(events_.now());
    injector_->advance_to(events_.now().seconds);
    schedule_next_fault();
    // One reschedule per fault instant: a closing drop-decisions window
    // recomputes here; an opening one is counted as suppressed inside
    // reschedule() and the stale serving set persists, which is the
    // control-loss model.
    reschedule();
  }

  /// Burst re-arrival: up to `count` parked flows (queued but not in the
  /// current serving set) are evicted and reborn with their remaining
  /// bytes. Iteration order is for_each_flow's deterministic order.
  void do_rearrival(std::int64_t count) {
    if (count <= 0 || voqs_.active_flows() == 0) {
      return;
    }
    serving_set_.clear();
    for (const Serving& s : serving_) {
      serving_set_.insert(s.id);
    }
    rearrival_scratch_.clear();
    voqs_.for_each_flow([this, count](const queueing::Flow& f) {
      if (static_cast<std::int64_t>(rearrival_scratch_.size()) >= count) {
        return;
      }
      if (serving_set_.count(f.id) != 0) {
        return;  // in service; only parked flows time out and restart
      }
      rearrival_scratch_.push_back(f);
    });
    const double now = events_.now().seconds;
    for (const queueing::Flow& f : rearrival_scratch_) {
      voqs_.remove(f.id);
      lifecycle_.requeue(f, now);
    }
  }

  /// --paranoid ledger: every admitted byte is delivered or still queued;
  /// every admitted flow is completed or still active. Exact integers —
  /// fluid drains round to whole bytes, so equality is achievable and
  /// any imbalance is a real leak.
  void audit_conservation(SimTime now) {
    auditor_.audit(
        now.seconds,
        {{"bytes",
          {{"bytes_arrived", lifecycle_.bytes_arrived().count}},
          {{"delivered", result_.delivered.count},
           {"backlog", voqs_.total_backlog().count}}},
         {"flows",
          {{"flows_arrived", lifecycle_.flows_arrived()}},
          {{"completed", lifecycle_.flows_completed()},
           {"active", static_cast<std::int64_t>(voqs_.active_flows())}}}});
  }

  std::string stall_diagnostics() const {
    std::ostringstream os;
    os << "calendar depth=" << events_.pending()
       << ", active flows=" << voqs_.active_flows()
       << ", backlog=" << voqs_.total_backlog().count << "B"
       << ", serving=" << serving_.size()
       << ", decision generation=" << schedule_generation_
       << ", last reschedule t=" << last_reschedule_.seconds << "s";
    if (injector_ != nullptr) {
      os << ", fault transitions=" << injector_->stats().transitions
         << (injector_->decisions_suppressed() ? " (decisions suppressed)"
                                               : "");
    }
    return os.str();
  }

  void record_completion(const queueing::Flow& flow, SimTime now) {
    // Ideal FCT: the flow alone on its path, i.e. serialized at the edge
    // link rate (the fabric core is non-blocking for a single flow).
    const SimTime ideal =
        transmission_time(flow.size, config_.fabric.host_link);
    lifecycle_.record_completion_with_ideal(flow.cls, flow.id, flow.src,
                                            flow.dst, flow.size,
                                            now - flow.arrival, ideal,
                                            now.seconds);
  }

  /// Applies fluid service between the last update and `now` using the
  /// rates of the current decision.
  void advance(SimTime now) {
    const double dt = now.seconds - last_advance_.seconds;
    BASRPT_ASSERT(dt >= -1e-12, "advance went backwards");
    if (dt <= 0.0) {
      return;
    }
    last_advance_ = now;
    const queueing::FlowStore& store = voqs_.store();
    for (const Serving& s : serving_) {
      // The generation-stamped ref distinguishes "this flow, still
      // live" from a recycled slot — no hash probe per serving flow.
      if (!store.valid(s.ref)) {
        continue;
      }
      const auto drained_bytes = static_cast<std::int64_t>(
          std::llround(s.rate_bps * dt / 8.0));
      if (drained_bytes <= 0) {
        continue;
      }
      const std::int64_t remaining = store.remaining(s.ref.slot);
      const Bytes amount{std::min(drained_bytes, remaining)};
      if (amount.count == remaining) {
        // Completing: copy the record out before drain_at frees the
        // slot. Flows that merely shrink are drained without a copy.
        const queueing::Flow copy = store.at(s.ref.slot);
        voqs_.drain_at(s.ref.slot, amount);
        result_.delivered += amount;
        record_completion(copy, now);
      } else {
        voqs_.drain_at(s.ref.slot, amount);
        result_.delivered += amount;
      }
    }
  }

  /// Fills decision_.selected with the flows the next service period
  /// will transmit (may end up empty). decision_ is a persistent buffer;
  /// the decision path allocates nothing in steady state.
  void select_flows() {
    decision_.selected.clear();
    if (config_.service_model == ServiceModel::kFairSharing) {
      // Everyone transmits; the allocator below divides the fabric.
      decision_.selected.reserve(voqs_.active_flows());
      voqs_.for_each_flow([this](const queueing::Flow& f) {
        decision_.selected.push_back(f.id);
      });
    } else {
      const auto& candidates = cache_.refresh();
      if (candidates.empty()) {
        return;
      }
      lifecycle_.decide(scheduler_, static_cast<PortId>(fabric_.hosts()),
                        candidates, decision_);
      if (config_.paranoid) {
        BASRPT_ASSERT(sched::decision_is_matching(decision_, voqs_),
                      "scheduler violated the crossbar constraint");
      }
    }
  }

  /// --paranoid rate differential: a certified single-round answer must
  /// equal route_into + MaxMinSolver bit for bit.
  void check_certified_rates() {
    rate_solver_.solve_general_into(serving_ends_.data(),
                                    serving_ends_.size(), reference_rates_);
    for (std::size_t k = 0; k < rates_.size(); ++k) {
      if (std::bit_cast<std::uint64_t>(rates_[k].bits_per_sec) !=
          std::bit_cast<std::uint64_t>(reference_rates_[k].bits_per_sec)) {
        std::ostringstream os;
        os << std::setprecision(17)
           << "flowsim: certified max-min rates differ from progressive "
              "filling over a serving set of "
           << rates_.size() << " flows, first at index " << k
           << " (certified " << rates_[k].bits_per_sec << " b/s, solver "
           << reference_rates_[k].bits_per_sec << " b/s)";
        throw fault::InvariantError(os.str());
      }
    }
  }

  /// Recomputes the serving set and rates; called on every arrival and
  /// completion, per the paper.
  void reschedule() {
    if (injector_ != nullptr && injector_->decisions_suppressed()) {
      // Control-message loss: the recomputation never reaches the data
      // plane, so the stale serving set keeps draining (via advance()).
      // The pump event at the window close forces a real reschedule.
      ++injector_->stats().decisions_suppressed;
      return;
    }
    ++schedule_generation_;
    ++result_.scheduler_invocations;
    last_reschedule_ = events_.now();

    select_flows();
    const std::vector<FlowId>& to_serve = decision_.selected;
    lifecycle_.apply_decision(to_serve, events_.now().seconds);
    serving_.clear();
    if (to_serve.empty()) {
      return;
    }

    // Max-min fair rates over the fabric for the serving set: usually
    // certified in one filling round from link counts, else routed and
    // solved (topo::FabricRates). Both paths reuse persistent buffers.
    serving_slots_.clear();
    serving_ends_.clear();
    for (const FlowId id : to_serve) {
      const queueing::FlowSlot slot = voqs_.slot_of(id);
      const queueing::Flow& f = voqs_.flow_at(slot);
      serving_slots_.push_back(slot);
      serving_ends_.push_back(
          {f.src, f.dst, static_cast<std::uint64_t>(id)});
    }
    if (rate_solver_.solve_into(serving_ends_.data(), serving_ends_.size(),
                                rates_) &&
        config_.paranoid) {
      check_certified_rates();
    }

    SimTime earliest{std::numeric_limits<double>::infinity()};
    FlowId earliest_flow = queueing::kInvalidFlow;
    serving_.reserve(to_serve.size());
    for (std::size_t k = 0; k < to_serve.size(); ++k) {
      const FlowId id = to_serve[k];
      const queueing::FlowSlot slot = serving_slots_[k];
      double rate = rates_[k].bits_per_sec;
      if (injector_ != nullptr) {
        // Degraded ports serve at a fraction of the allocated rate; a
        // dark endpoint (blackout) freezes the flow entirely. Matching
        // mode masks dark ports out of the candidates, but fair sharing
        // selects every flow, so zero-rate flows are parked rather than
        // asserted against.
        const queueing::Flow& f = voqs_.flow_at(slot);
        rate *= std::min(injector_->port_factor(f.src),
                         injector_->port_factor(f.dst));
        if (rate <= 0.0) {
          continue;
        }
      }
      BASRPT_ASSERT(rate > 0.0, "selected flow allocated zero rate");
      serving_.push_back({id, voqs_.store().ref(slot), rate});
      const double finish =
          static_cast<double>(voqs_.flow_at(slot).remaining.count) * 8.0 /
          rate;
      if (SimTime{finish} < earliest) {
        earliest = SimTime{finish};
        earliest_flow = id;
      }
    }
    if (serving_.empty()) {
      return;  // every selected flow was frozen by a fault
    }

    const SimTime when = events_.now() + earliest;
    const std::uint64_t generation = schedule_generation_;
    const FlowId target = earliest_flow;
    events_.schedule_at(when,
                        [this, generation, target]() {
                          on_completion(generation, target);
                        });
  }

  FlowSimConfig config_;
  sched::Scheduler& scheduler_;
  workload::TrafficSource* traffic_;  // null in online mode
  topo::Fabric fabric_;
  queueing::VoqMatrix voqs_;
  FlowSimResult result_;
  fabric::FlowLifecycle lifecycle_;
  fabric::CandidateCache cache_;
  sim::Engine events_;
  sched::Decision decision_;
  std::vector<Serving> serving_;
  topo::FabricRates rate_solver_{fabric_};
  std::vector<queueing::FlowSlot> serving_slots_;  // reschedule scratch
  std::vector<topo::FlowEnds> serving_ends_;       // reschedule scratch
  std::vector<Rate> rates_;
  std::vector<Rate> reference_rates_;  // --paranoid differential scratch
  std::unique_ptr<fault::FaultInjector> injector_;  // null = fault-free
  fault::Watchdog watchdog_;
  fault::InvariantAuditor auditor_{"flowsim"};
  std::unordered_set<FlowId> serving_set_;        // rearrival scratch
  std::vector<queueing::Flow> rearrival_scratch_;
  SimTime last_advance_{};
  SimTime last_reschedule_{-1.0};
  bool refresh_pending_ = false;
  std::uint64_t schedule_generation_ = 0;
  /// candidates_masked carried over from a resumed checkpoint (the cache
  /// counter restarts at zero after a restore); 0 for fresh runs.
  std::int64_t candidates_masked_base_ = 0;
};

}  // namespace

FlowSimResult run_flow_sim(const FlowSimConfig& config,
                           sched::Scheduler& scheduler,
                           workload::TrafficSource& traffic) {
  Engine engine(config, scheduler, &traffic);
  return engine.run();
}

// ---- OnlineFlowSim: thin pimpl over the file-local Engine ---------------

class OnlineFlowSim::Impl {
 public:
  Impl(const FlowSimConfig& config, sched::Scheduler& scheduler)
      : engine(config, scheduler, /*traffic=*/nullptr) {}
  Engine engine;
};

OnlineFlowSim::OnlineFlowSim(const FlowSimConfig& config,
                             sched::Scheduler& scheduler)
    : impl_(std::make_unique<Impl>(config, scheduler)) {
  impl_->engine.begin(nullptr);
}

OnlineFlowSim::OnlineFlowSim(const FlowSimConfig& config,
                             sched::Scheduler& scheduler,
                             const OnlineSimState& resume)
    : impl_(std::make_unique<Impl>(config, scheduler)) {
  impl_->engine.begin(&resume);
}

OnlineFlowSim::~OnlineFlowSim() = default;

void OnlineFlowSim::offer(const workload::FlowArrival& a) {
  impl_->engine.offer(a);
}
void OnlineFlowSim::advance_to(SimTime t) { impl_->engine.advance_to(t); }
SimTime OnlineFlowSim::now() const { return impl_->engine.now(); }
std::size_t OnlineFlowSim::active_flows() const {
  return impl_->engine.active_flows();
}
Bytes OnlineFlowSim::backlog() const { return impl_->engine.backlog(); }
std::int64_t OnlineFlowSim::flows_arrived() const {
  return impl_->engine.flows_arrived();
}
std::int64_t OnlineFlowSim::flows_completed() const {
  return impl_->engine.flows_completed();
}
Bytes OnlineFlowSim::delivered() const { return impl_->engine.delivered(); }
std::uint64_t OnlineFlowSim::scheduler_invocations() const {
  return impl_->engine.scheduler_invocations();
}
const stats::FctAggregator& OnlineFlowSim::fct() const {
  return impl_->engine.fct();
}
bool OnlineFlowSim::in_disruption() const {
  return impl_->engine.in_disruption();
}
fault::FaultStats OnlineFlowSim::fault_stats() const {
  return impl_->engine.fault_stats();
}
OnlineSimState OnlineFlowSim::capture() const {
  return impl_->engine.capture();
}
FlowSimResult OnlineFlowSim::finish() { return impl_->engine.finish_online(); }

}  // namespace basrpt::flowsim
