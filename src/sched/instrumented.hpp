// Passive observability decorator for any Scheduler.
//
// Wraps a scheduler and records, per decision: wall-clock decision
// latency (the Sec. IV-C cost the paper worries about), candidate count,
// matching size, and preemption count — the number of flows selected by
// the previous decision but absent from this one (a flow that completed
// between decisions also counts; the decorator sees only decisions, and
// for churn accounting a completion-triggered reshuffle is churn too).
//
// The decorator never alters the wrapped decision, candidate order, or
// any RNG, so instrumented runs are bit-identical to bare ones. name()
// and needs_arrival_lane() forward to the wrapped scheduler so result
// tables and candidate building are unchanged.
// Wrapping is itself the opt-in: metrics are recorded on every call,
// independent of obs::enabled().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::sched {

class InstrumentedScheduler : public Scheduler {
 public:
  /// Records into `registry` (default: the thread's active one — the
  /// bound shard under the parallel sweep runner, else global) under
  /// "<prefix>.decisions", "<prefix>.decision_ns", "<prefix>.candidates",
  /// "<prefix>.matching_size", and "<prefix>.preemptions".
  explicit InstrumentedScheduler(SchedulerPtr inner,
                                 obs::Registry* registry = nullptr,
                                 const std::string& prefix = "sched");

  std::string name() const override { return inner_->name(); }
  bool needs_arrival_lane() const override {
    return inner_->needs_arrival_lane();
  }

  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

  // The decorator's own tallies are observability, not simulation state;
  // only the wrapped scheduler's state travels through checkpoints.
  std::vector<std::uint64_t> checkpoint_state() const override {
    return inner_->checkpoint_state();
  }
  void restore_checkpoint_state(
      const std::vector<std::uint64_t>& state) override {
    inner_->restore_checkpoint_state(state);
  }

  // Local tallies mirroring the registry, for tests and direct queries.
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t preemptions() const { return preemptions_; }
  std::uint64_t last_candidates() const { return last_candidates_; }
  std::uint64_t last_matching_size() const { return last_matching_size_; }
  std::uint64_t last_preemptions() const { return last_preemptions_; }

  const Scheduler& inner() const { return *inner_; }

 private:
  SchedulerPtr inner_;
  obs::Counter* decisions_counter_;
  obs::Counter* preemptions_counter_;
  obs::LatencyHistogram* decision_ns_;
  obs::LatencyHistogram* candidates_hist_;
  obs::LatencyHistogram* matching_hist_;

  std::vector<FlowId> prev_selected_;  // sorted
  std::vector<FlowId> sorted_scratch_;
  std::uint64_t decisions_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t last_candidates_ = 0;
  std::uint64_t last_matching_size_ = 0;
  std::uint64_t last_preemptions_ = 0;
};

}  // namespace basrpt::sched
