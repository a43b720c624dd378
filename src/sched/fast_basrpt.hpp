// Fast BASRPT (Algorithm 1 of the paper) — the headline contribution.
//
// Greedy flow selection in non-decreasing order of
//     (V / N) * remaining_size - located_queue_length,
// skipping flows whose ingress or egress port is already claimed. Summing
// the key over the <= N selected flows approximates the exact BASRPT
// objective V*ȳ(t) − Σ X_ij R_ij (N stands in for the unknown number of
// selected flows n(t)). Larger V weighs FCT minimization more; V → ∞
// degenerates to SRPT, V = 0 degenerates to longest-queue-first.
#pragma once

#include <cstddef>

#include "matching/greedy.hpp"
#include "sched/scheduler.hpp"

namespace basrpt::sched {

/// Writes the fast-BASRPT key `weight * sr[i] - backlog[i]` for i in
/// [0, n): multiply, then subtract. The build targets baseline x86-64
/// (no FMA), so the two roundings are fixed and the keys are
/// reproducible bit for bit. Centralized and distributed fast BASRPT
/// both score through this one loop.
void fast_basrpt_keys(double weight, const double* sr, const double* backlog,
                      std::size_t n, double* out);

class FastBasrptScheduler final : public Scheduler {
 public:
  /// `v` is the paper's importance weight (>= 0), in packet units.
  explicit FastBasrptScheduler(double v);

  std::string name() const override;
  bool needs_arrival_lane() const override { return false; }
  void decide_into(PortId n_ports, const CandidateView& candidates,
                   Decision& out) override;

  double v() const { return v_; }

 private:
  double v_;
  std::vector<double> keys_;
  matching::GreedyMatcher matcher_;
};

}  // namespace basrpt::sched
