#include "sched/fifo.hpp"

namespace basrpt::sched {

void FifoScheduler::decide_into(PortId n_ports,
                                const CandidateView& candidates,
                                Decision& out) {
  if (candidates.empty()) {
    // Nothing to schedule; don't demand the arrival lanes of an empty
    // (possibly default-constructed) view.
    out.selected.clear();
    return;
  }
  // oldest_flow()/oldest_arrival() throw ConfigError if the builder was
  // configured without the arrival lanes.
  matcher_.match_lanes_into(candidates.oldest_arrival(), candidates.ingress(),
                            candidates.egress(), candidates.oldest_flow(),
                            candidates.size(), n_ports, n_ports,
                            out.selected, candidates.changes());
}

}  // namespace basrpt::sched
