// Greedy maximal matching over scored candidates.
//
// This is the primitive behind SRPT and fast BASRPT (Algorithm 1 of the
// paper): iterate candidates in non-decreasing score order and accept a
// candidate iff its ingress and egress ports are both still free. The
// result is a maximal matching over the candidate support.
#pragma once

#include <cstdint>
#include <vector>

#include "matching/bipartite.hpp"

namespace basrpt::matching {

/// One candidate for selection: typically one active flow.
struct ScoredCandidate {
  PortId left;
  PortId right;
  double score;       // lower is better (e.g. remaining size for SRPT)
  std::int64_t payload = 0;  // caller's identifier (flow id)
};

/// Result of a greedy pass: the matching plus which candidates won.
struct GreedyResult {
  Matching matching;
  std::vector<std::int64_t> selected_payloads;
};

/// Sorts candidates by (score, payload) — the payload tiebreak makes the
/// algorithm deterministic — and greedily accepts. O(K log K) for K
/// candidates. `n_left`/`n_right` are port counts.
GreedyResult greedy_maximal(std::vector<ScoredCandidate> candidates,
                            PortId n_left, PortId n_right);

/// Allocation-free variant of greedy_maximal for hot decision loops:
/// port-usage and sort scratch persist across calls, candidates arrive
/// as SoA lanes (the sched::CandidateView layout — the score lane is
/// often a view lane streamed with zero copies), and winners are
/// appended to `out`. The selection is identical to greedy_maximal
/// *provided payloads are distinct* (they are flow ids in the
/// schedulers): the (score, payload) key is then a total order, so no
/// two sort algorithms can disagree on the order.
///
/// Two orderings, chosen by input size (every input is sorted, already
/// sorted ones included):
///  * below kRadixThreshold: comparison-sort {score, index} records;
///  * at or above it: LSD radix sort of {coarse 32-bit score key, index}
///    records, then an exact re-sort of each run sharing a coarse key.
/// Records carry only the candidate index; the accept scan reads the
/// port lanes through it, and stops once min(n_left, n_right) winners
/// are accepted — every later candidate would be rejected anyway. Input
/// lanes are never reordered.
class GreedyMatcher {
 public:
  /// Clears `out`, then appends the payloads of the accepted candidates
  /// in selection (sorted) order. Lane pointers must each hold `n`
  /// elements; scores must be NaN-free. No heap allocation once the
  /// scratch has warmed to the fabric size.
  void match_lanes_into(const double* score, const PortId* left,
                        const PortId* right, const std::int64_t* payload,
                        std::size_t n, PortId n_left, PortId n_right,
                        std::vector<std::int64_t>& out);

  /// Below this many candidates, comparison sort beats the radix
  /// sort's fixed per-call cost (four 256-bin histograms and their
  /// prefix sums).
  static constexpr std::size_t kRadixThreshold = 128;

 private:
  /// Comparison-sort record: the exact score and the candidate index.
  struct Rec {
    double score;
    std::uint32_t idx;
  };

  /// Radix-sort record: coarse score key (top 32 bits of the
  /// sortable-double transform) and the candidate index. 8 bytes.
  struct RadixRec {
    std::uint32_t key;
    std::uint32_t idx;
  };

  /// Sorts rrecs_a_ into exact (score, payload) order via LSD radix
  /// over coarse keys; handles any score distribution.
  void sort_recs_radix(const double* score, const std::int64_t* payload,
                       std::size_t n);

  std::vector<char> left_used_;
  std::vector<char> right_used_;
  std::vector<Rec> recs_;
  std::vector<RadixRec> rrecs_a_;
  std::vector<RadixRec> rrecs_b_;
};

}  // namespace basrpt::matching
