#include "fabric/flow_lifecycle.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "perf/profiler.hpp"

namespace basrpt::fabric {

FlowLifecycle::FlowLifecycle(queueing::VoqMatrix* voqs,
                             stats::FctAggregator& fct,
                             obs::FlowTracer* tracer)
    : voqs_(voqs), fct_(fct), tracer_(tracer) {
  if (voqs_ != nullptr && obs::enabled()) {
    obs::Registry& reg = obs::Registry::active();
    decisions_ = &reg.counter("sched.decisions");
    preemptions_ = &reg.counter("sched.preemptions");
    decision_ns_ = &reg.histogram("sched.decision_ns");
    candidates_ = &reg.histogram("sched.candidates");
    matching_size_ = &reg.histogram("sched.matching_size");
    // A matching selects at most one flow per ingress port.
    decided_.reserve(static_cast<std::size_t>(voqs_->ports()));
    decided_scratch_.reserve(static_cast<std::size_t>(voqs_->ports()));
  }
}

void FlowLifecycle::begin_run() {
  if (tracer_ != nullptr) {
    tracer_->begin_run();
  }
}

FlowId FlowLifecycle::admit(const Admission& a) {
  BASRPT_ASSERT(a.size.count > 0, "arriving flow must carry bytes");
  const FlowId id = next_id_++;
  if (voqs_ != nullptr) {
    queueing::Flow flow;
    flow.id = id;
    flow.src = a.src;
    flow.dst = a.dst;
    flow.size = a.size;
    flow.remaining = a.size;
    flow.arrival = a.arrival;
    flow.cls = a.cls;
    voqs_->add_flow(flow);
  }
  ++flows_arrived_;
  bytes_arrived_ += a.size;
  if (tracer_ != nullptr) {
    tracer_->on_arrival(id, a.src, a.dst, a.arrival.seconds,
                        static_cast<double>(a.size.count));
  }
  return id;
}

FlowId FlowLifecycle::requeue(const queueing::Flow& evicted, double now) {
  BASRPT_ASSERT(evicted.remaining.count > 0,
                "requeued flow must carry remaining bytes");
  const FlowId id = next_id_++;
  if (voqs_ != nullptr) {
    BASRPT_ASSERT(!voqs_->contains(evicted.id),
                  "requeue expects the flow already evicted");
    queueing::Flow flow;
    flow.id = id;
    flow.src = evicted.src;
    flow.dst = evicted.dst;
    flow.size = evicted.remaining;
    flow.remaining = evicted.remaining;
    flow.arrival = SimTime{now};
    flow.cls = evicted.cls;
    voqs_->add_flow(flow);
  }
  ++flows_requeued_;
  if (tracer_ != nullptr) {
    tracer_->on_preemption(evicted.id, evicted.src, evicted.dst, now,
                           static_cast<double>(evicted.size.count),
                           static_cast<double>(evicted.remaining.count));
    tracer_->on_arrival(id, evicted.src, evicted.dst, now,
                        static_cast<double>(evicted.remaining.count));
  }
  return id;
}

void FlowLifecycle::decide(sched::Scheduler& scheduler, PortId n_ports,
                           const sched::CandidateView& candidates,
                           sched::Decision& out) {
  {
    const perf::ScopedPhase phase(perf::Phase::kDecide, decision_ns_);
    scheduler.decide_into(n_ports, candidates, out);
  }
  if (decision_ns_ == nullptr) {
    return;
  }
  decisions_->add(1);
  candidates_->add(candidates.size());
  matching_size_->add(out.selected.size());
  decided_scratch_.assign(out.selected.begin(), out.selected.end());
  std::sort(decided_scratch_.begin(), decided_scratch_.end());
  std::int64_t preempted = 0;
  for (const FlowId id : decided_) {
    if (!std::binary_search(decided_scratch_.begin(), decided_scratch_.end(),
                            id)) {
      ++preempted;
    }
  }
  preemptions_->add(preempted);
  decided_.swap(decided_scratch_);
}

void FlowLifecycle::apply_decision(const std::vector<FlowId>& selected,
                                   double now) {
  if (tracer_ == nullptr) {
    return;
  }
  const perf::ScopedPhase phase(perf::Phase::kLifecycleApply);
  BASRPT_ASSERT(voqs_ != nullptr,
                "apply_decision needs an attached VoqMatrix");
  selected_set_.clear();
  selected_set_.insert(selected.begin(), selected.end());
  for (const FlowId id : prev_selected_) {
    if (!voqs_->contains(id)) {
      continue;  // completed, not preempted
    }
    if (selected_set_.count(id) != 0) {
      continue;  // still selected
    }
    const queueing::Flow& f = voqs_->flow(id);
    tracer_->on_preemption(f.id, f.src, f.dst, now,
                           static_cast<double>(f.size.count),
                           static_cast<double>(f.remaining.count));
  }
  for (const FlowId id : selected) {
    const queueing::Flow& f = voqs_->flow(id);
    tracer_->on_service(f.id, f.src, f.dst, now,
                        static_cast<double>(f.size.count),
                        static_cast<double>(f.remaining.count));
  }
  prev_selected_.assign(selected.begin(), selected.end());
}

FlowLifecycle::State FlowLifecycle::state() const {
  return {next_id_,     flows_arrived_, flows_completed_,
          flows_requeued_, bytes_arrived_, prev_selected_};
}

void FlowLifecycle::restore(const State& s) {
  next_id_ = s.next_id;
  flows_arrived_ = s.flows_arrived;
  flows_completed_ = s.flows_completed;
  flows_requeued_ = s.flows_requeued;
  bytes_arrived_ = s.bytes_arrived;
  prev_selected_ = s.prev_selected;
  selected_set_.clear();  // scratch; rebuilt by the next apply_decision
}

void FlowLifecycle::note_service(FlowId id, PortId src, PortId dst,
                                 double now, Bytes size, Bytes remaining) {
  if (tracer_ != nullptr) {
    tracer_->on_service(id, src, dst, now,
                        static_cast<double>(size.count),
                        static_cast<double>(remaining.count));
  }
}

void FlowLifecycle::record_completion(stats::FlowClass cls, FlowId id,
                                      PortId src, PortId dst, Bytes size,
                                      SimTime fct, double trace_time) {
  fct_.record(cls, fct, size);
  ++flows_completed_;
  if (tracer_ != nullptr) {
    tracer_->on_completion(id, src, dst, trace_time,
                           static_cast<double>(size.count));
  }
}

void FlowLifecycle::record_completion_with_ideal(
    stats::FlowClass cls, FlowId id, PortId src, PortId dst, Bytes size,
    SimTime fct, SimTime ideal, double trace_time) {
  fct_.record_with_ideal(cls, fct, size, ideal);
  ++flows_completed_;
  if (tracer_ != nullptr) {
    tracer_->on_completion(id, src, dst, trace_time,
                           static_cast<double>(size.count));
  }
}

}  // namespace basrpt::fabric
