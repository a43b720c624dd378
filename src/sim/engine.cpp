#include "sim/engine.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "common/interrupt.hpp"
#include "obs/metrics.hpp"
#include "perf/profiler.hpp"

namespace basrpt::sim {

EventId Engine::schedule_at(SimTime t, EventFn fn) {
  BASRPT_ASSERT(t >= now_, "cannot schedule an event in the past");
  BASRPT_ASSERT(static_cast<bool>(fn), "event callback must be set");
  const EventId id = next_id_++;
  {
    const perf::ScopedPhase phase(perf::Phase::kCalendarPush);
    calendar_.push(t, id, std::move(fn));
  }
  if (calendar_.size() > peak_pending_) {
    peak_pending_ = calendar_.size();
  }
  return id;
}

EventId Engine::schedule_in(SimTime delay, EventFn fn) {
  BASRPT_ASSERT(delay.seconds >= 0.0, "delay cannot be negative");
  return schedule_at(now_ + delay, std::move(fn));
}

std::uint64_t Engine::run_until(SimTime horizon) {
  // Observability is passive: the chunk clock and the heartbeat only
  // *read* state, and neither can reorder events or touch callers' RNGs.
  const auto chunk_start = std::chrono::steady_clock::now();
  std::uint64_t ran = 0;
  while (!calendar_.empty() && calendar_.min_time() <= horizon) {
    step();
    ++ran;
    heartbeat_.tick(now_.seconds, executed_);
    if (watchdog_ != nullptr) {
      watchdog_->tick(now_.seconds, executed_);
    }
    // Cooperative interruption (SIGINT/SIGTERM under a ckpt::SignalGuard):
    // surface at an event boundary, where caller state is consistent
    // enough to checkpoint. One relaxed load every 64 events; nothing
    // ever sets the flag unless a guard is installed.
    if ((executed_ & 63u) == 0 && interrupt_requested()) {
      throw InterruptedError(interrupt_signal());
    }
  }
  // Advance the clock to the horizon even if the calendar drained early,
  // so metrics normalized by now() see the full window.
  if (now_ < horizon) {
    now_ = horizon;
  }
  heartbeat_.flush(now_.seconds, executed_);
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::active();
    reg.counter("sim.events_executed").add(static_cast<std::int64_t>(ran));
    reg.gauge("sim.calendar_depth").set(static_cast<double>(pending()));
    reg.gauge("sim.calendar_peak").set(static_cast<double>(peak_pending_));
    const auto chunk_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - chunk_start);
    reg.histogram("sim.run_chunk_ns")
        .add(static_cast<std::uint64_t>(chunk_ns.count()));
  }
  return ran;
}

void Engine::set_watchdog(fault::Watchdog* wd) {
  watchdog_ = (wd != nullptr && wd->active()) ? wd : nullptr;
  if (watchdog_ != nullptr) {
    heartbeat_.set_augment([this](obs::HeartbeatStatus& status) {
      status.stall_checks = watchdog_->checks();
      status.stall_frozen_events = watchdog_->frozen_events();
      status.stall_frozen_wall_sec = watchdog_->frozen_wall_sec();
    });
  } else {
    heartbeat_.set_augment(nullptr);
  }
}

bool Engine::step() {
  if (calendar_.empty()) {
    return false;
  }
  // The ladder queue pops by move, so the callback (and any move-only
  // state it owns) transfers out without a copy or an allocation.
  LadderQueue::Entry entry = [this] {
    const perf::ScopedPhase phase(perf::Phase::kCalendarPop);
    return calendar_.pop_min();
  }();
  BASRPT_ASSERT(entry.t >= now_, "event queue produced an event in the past");
  now_ = entry.t;
  ++executed_;
  {
    const perf::ScopedPhase phase(perf::Phase::kEventDispatch);
    entry.fn();
  }
  return true;
}

void schedule_periodic(Engine& engine, SimTime start, SimTime interval,
                       SimTime horizon, std::function<void(SimTime)> callback) {
  BASRPT_REQUIRE(interval.seconds > 0.0, "sampling interval must be positive");
  if (start > horizon) {
    return;
  }
  // Self-rescheduling closure. The calendar entries own the function
  // object via shared_ptr; the closure itself only holds a weak_ptr, so
  // there is no ownership cycle and the chain is freed once the last
  // scheduled tick runs (or the calendar is destroyed).
  auto tick = std::make_shared<std::function<void()>>();
  auto cb = std::make_shared<std::function<void(SimTime)>>(std::move(callback));
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  *tick = [&engine, interval, horizon, weak_tick, cb]() {
    (*cb)(engine.now());
    const SimTime next = engine.now() + interval;
    auto self = weak_tick.lock();
    if (next <= horizon && self != nullptr) {
      engine.schedule_at(next, [self] { (*self)(); });
    }
  };
  engine.schedule_at(start, [tick] { (*tick)(); });
}

}  // namespace basrpt::sim
