#include "sched/srpt.hpp"

namespace basrpt::sched {

void SrptScheduler::decide_into(PortId n_ports,
                                const CandidateView& candidates,
                                Decision& out) {
  // The SRPT score lane IS the shortest_remaining lane — no key
  // computation, no repack; the matcher streams the view directly.
  matcher_.match_lanes_into(candidates.shortest_remaining(),
                            candidates.ingress(), candidates.egress(),
                            candidates.shortest_flow(), candidates.size(),
                            n_ports, n_ports, out.selected,
                            candidates.changes());
}

}  // namespace basrpt::sched
