#include "sched/threshold.hpp"

#include <cstdio>

#include "common/assert.hpp"
#include "perf/profiler.hpp"

namespace basrpt::sched {

ThresholdSrptScheduler::ThresholdSrptScheduler(double threshold_packets)
    : threshold_(threshold_packets) {
  BASRPT_REQUIRE(threshold_packets > 0.0, "threshold must be positive");
}

std::string ThresholdSrptScheduler::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "threshold-srpt(T=%g)", threshold_);
  return buf;
}

void ThresholdSrptScheduler::decide_into(PortId n_ports,
                                         const CandidateView& candidates,
                                         Decision& out) {
  // Two-class scoring: promoted VOQs sort strictly before everything
  // else, each class internally ordered by remaining size. The class
  // offset must dominate any remaining size; sizes are bounded by 50 MB
  // (~3.4e4 packets), so 1e12 packets is a safe separator.
  constexpr double kClassOffset = 1e12;
  const std::size_t n = candidates.size();
  keys_.resize(n);
  {
    perf::ScopedPhase phase(perf::Phase::kScoreKernel);
    const double* sr = candidates.shortest_remaining();
    const double* backlog = candidates.backlog();
    for (std::size_t i = 0; i < n; ++i) {
      keys_[i] = sr[i] + (backlog[i] > threshold_ ? 0.0 : kClassOffset);
    }
  }
  matcher_.match_lanes_into(keys_.data(), candidates.ingress(),
                            candidates.egress(), candidates.shortest_flow(),
                            n, n_ports, n_ports, out.selected,
                            candidates.changes());
}

}  // namespace basrpt::sched
