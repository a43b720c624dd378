// SRPT matching scheduler (Sec. II / III-A).
//
// "The globally shortest flow is first included, and if it lies in queue
// (i, j), then all other flows with ingress port i or egress port j are
// blocked... Repeat for the rest of flows until no flow could be added."
// This is the greedy maximal matching in non-decreasing remaining size
// that pFabric/PDQ/PASE approximate, and the algorithm whose instability
// the paper demonstrates.
#pragma once

#include "matching/greedy.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::sched {

class SrptScheduler final : public Scheduler {
 public:
  std::string name() const override { return "srpt"; }
  bool needs_arrival_lane() const override { return false; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

 private:
  matching::GreedyMatcher matcher_;
};

}  // namespace basrpt::sched
