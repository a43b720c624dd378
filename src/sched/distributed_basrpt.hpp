// Distributed fast BASRPT — request/grant approximation.
//
// Sec. IV-C: "Since fast BASRPT assigns global priorities to all flows,
// it can be simply implemented using distributed paradigms [pFabric]."
// This scheduler makes that concrete without a central sort: it runs an
// iSLIP-style request/grant exchange where every port uses only local
// information.
//
//   round r:  each unmatched ingress requests the egress of its best
//             (minimum-key) VOQ among egresses still unmatched;
//             each unmatched egress grants the lowest-key request.
//
// With enough rounds this converges to a maximal matching; with few
// rounds it is what a line-rate hardware implementation would compute.
// The gap to centralized fast BASRPT is measured in
// bench_ablation_distributed.
#pragma once

#include "sched/scheduler.hpp"

namespace basrpt::sched {

class DistributedBasrptScheduler final : public Scheduler {
 public:
  /// `rounds` request/grant iterations per decision (hardware budget).
  DistributedBasrptScheduler(double v, int rounds);

  std::string name() const override;
  bool needs_arrival_lane() const override { return false; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

  double v() const { return v_; }
  int rounds() const { return rounds_; }

 private:
  double v_;
  int rounds_;
  std::vector<std::vector<std::size_t>> per_ingress_;
  std::vector<double> key_;
  std::vector<char> ingress_matched_;
  std::vector<char> egress_matched_;
  std::vector<std::size_t> request_of_;
};

}  // namespace basrpt::sched
