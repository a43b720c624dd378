#include "sched/fast_basrpt.hpp"

#include <cstdio>

#include "common/assert.hpp"
#include "perf/profiler.hpp"

namespace basrpt::sched {

void fast_basrpt_keys(double weight, const double* sr, const double* backlog,
                      std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = weight * sr[i] - backlog[i];
  }
}

FastBasrptScheduler::FastBasrptScheduler(double v) : v_(v) {
  BASRPT_REQUIRE(v >= 0.0, "BASRPT weight V must be non-negative");
}

std::string FastBasrptScheduler::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "fast-basrpt(V=%g)", v_);
  return buf;
}

void FastBasrptScheduler::decide_into(PortId n_ports,
                                      const CandidateView& candidates,
                                      Decision& out) {
  const double weight = v_ / static_cast<double>(n_ports);
  const std::size_t n = candidates.size();
  keys_.resize(n);
  {
    // The per-VOQ SRPT representative also minimizes this key within its
    // VOQ (the backlog term is common to all the VOQ's flows).
    perf::ScopedPhase phase(perf::Phase::kScoreKernel);
    fast_basrpt_keys(weight, candidates.shortest_remaining(),
                     candidates.backlog(), n, keys_.data());
  }
  matcher_.match_lanes_into(keys_.data(), candidates.ingress(),
                            candidates.egress(), candidates.shortest_flow(),
                            n, n_ports, n_ports, out.selected,
                            candidates.changes());
}

}  // namespace basrpt::sched
