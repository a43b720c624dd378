#include "topo/maxmin.hpp"

#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace basrpt::topo {

std::vector<Rate> max_min_rates(const std::vector<FlowDemand>& demands,
                                const std::vector<Rate>& capacities) {
  std::vector<Rate> rates;
  MaxMinSolver solver;
  solver.solve_into(demands.data(), demands.size(), capacities, rates);
  return rates;
}

void MaxMinSolver::solve_into(const FlowDemand* demands, std::size_t n_flows,
                              const std::vector<Rate>& capacities,
                              std::vector<Rate>& rates) {
  const std::size_t n_links = capacities.size();
  rates.assign(n_flows, Rate{0.0});
  if (n_flows == 0) {
    return;
  }

  residual_.resize(n_links);
  for (std::size_t l = 0; l < n_links; ++l) {
    BASRPT_ASSERT(capacities[l].bits_per_sec >= 0.0,
                  "negative link capacity");
    residual_[l] = capacities[l].bits_per_sec;
  }

  // Weight of unfrozen traffic per link.
  weight_.assign(n_links, 0.0);
  frozen_.assign(n_flows, 0);
  for (std::size_t f = 0; f < n_flows; ++f) {
    BASRPT_ASSERT(!demands[f].path.empty(), "flow demand with empty path");
    for (const LinkUse& use : demands[f].path) {
      BASRPT_ASSERT(use.link >= 0 &&
                        static_cast<std::size_t>(use.link) < n_links,
                    "link id out of range");
      BASRPT_ASSERT(use.fraction > 0.0 && use.fraction <= 1.0,
                    "link fraction must be in (0, 1]");
      weight_[static_cast<std::size_t>(use.link)] += use.fraction;
    }
  }

  // All unfrozen flows always share one common rate "level"; progressive
  // filling raises it until a link saturates or a flow hits its cap.
  double level = 0.0;
  std::size_t remaining = n_flows;

  while (remaining > 0) {
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < n_links; ++l) {
      if (weight_[l] > kFillEps) {
        delta = std::min(delta, residual_[l] / weight_[l]);
      }
    }
    for (std::size_t f = 0; f < n_flows; ++f) {
      if (frozen_[f] == 0 && demands[f].cap.bits_per_sec > 0.0) {
        delta = std::min(delta, demands[f].cap.bits_per_sec - level);
      }
    }
    BASRPT_ASSERT(std::isfinite(delta),
                  "progressive filling found no binding constraint");
    delta = std::max(delta, 0.0);

    level += delta;
    for (std::size_t l = 0; l < n_links; ++l) {
      if (weight_[l] > kFillEps) {
        residual_[l] -= weight_[l] * delta;
      }
    }

    // Freeze flows on saturated links or at their caps.
    std::size_t newly_frozen = 0;
    for (std::size_t f = 0; f < n_flows; ++f) {
      if (frozen_[f] != 0) {
        continue;
      }
      bool freeze = false;
      if (demands[f].cap.bits_per_sec > 0.0 &&
          level >= demands[f].cap.bits_per_sec - kFillEps) {
        freeze = true;
      }
      if (!freeze) {
        for (const LinkUse& use : demands[f].path) {
          if (residual_[static_cast<std::size_t>(use.link)] <= kFillEps) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        frozen_[f] = 1;
        rates[f] = Rate{level};
        for (const LinkUse& use : demands[f].path) {
          weight_[static_cast<std::size_t>(use.link)] -= use.fraction;
        }
        ++newly_frozen;
      }
    }
    remaining -= newly_frozen;
    BASRPT_ASSERT(newly_frozen > 0 || remaining == 0,
                  "progressive filling made no progress");
  }
}

}  // namespace basrpt::topo
