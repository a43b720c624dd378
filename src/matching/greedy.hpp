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
/// Ordering strategy, chosen per call (every input is sorted, already
/// sorted ones included):
///  * port counts >= 65536: comparison-sort an index permutation (the
///    ports do not fit the 16-bit record fields);
///  * small sets: comparison-sort compact 16-byte records;
///  * large sets: a value-linear bucket scatter — a monotone bucket map
///    fitted to ~128 strided score samples (one linear piece, or two
///    pieces split at the dominant sample gap so bimodal keys like
///    threshold-SRPT's class offset still spread evenly) — followed by
///    one adaptive insertion sweep (O(n + inversions)); buckets the
///    distribution overloads are pre-sorted, unsampled outliers clamp
///    into the edge buckets, and distributions no piecewise-linear map
///    can spread (zero/infinite range, heavy duplicate mass) fall back
///    to the LSD radix sort over coarse 32-bit score keys.
/// Either way the accept scan stops once min(n_left, n_right) winners
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

  /// AoS adapter over match_lanes_into for callers holding
  /// ScoredCandidate buffers (repacks into lane scratch per call; the
  /// buffer is left untouched).
  void match_into(const std::vector<ScoredCandidate>& candidates,
                  PortId n_left, PortId n_right,
                  std::vector<std::int64_t>& out);

  /// Below this many candidates, comparison sort beats the bucket
  /// histogram setup cost. Port counts >= 65536 also take a comparison
  /// path (ports are packed into 16 bits in the sort records).
  static constexpr std::size_t kRadixThreshold = 128;

 private:
  /// Bucket-sort record: the exact score for comparisons, the
  /// candidate's index for payload fetch, and its ports for the accept
  /// scan. 16 bytes, so the scatter and sweep move compact rows.
  struct Rec {
    double score;
    std::uint32_t idx;
    std::uint16_t left;
    std::uint16_t right;
  };

  /// Radix-fallback record: coarse score key (top 32 bits of the
  /// sortable-double transform) instead of the score. 12 bytes.
  struct RadixRec {
    std::uint32_t key;
    std::uint16_t left;
    std::uint16_t right;
    std::uint32_t idx;
  };

  /// Sorts recs_ (n entries) into exact (score, payload) order via the
  /// sampled piecewise-linear bucket scatter. Returns false when the
  /// distribution defeats the map (caller then radix-sorts instead).
  bool sort_recs_bucket(const double* score, const PortId* left,
                        const PortId* right, const std::int64_t* payload,
                        std::size_t n);

  /// Sorts rrecs_a_ into exact (score, payload) order via LSD radix
  /// over coarse keys; handles any score distribution.
  void sort_recs_radix(const double* score, const std::int64_t* payload,
                       const PortId* left, const PortId* right,
                       std::size_t n);

  std::vector<char> left_used_;
  std::vector<char> right_used_;
  std::vector<double> samples_;        // strided score sample, sorted
  std::vector<Rec> recs_;
  std::vector<std::uint32_t> bidx_;
  std::vector<std::uint32_t> hist_;
  std::vector<std::uint32_t> starts_;
  std::vector<RadixRec> rrecs_a_;
  std::vector<RadixRec> rrecs_b_;
  std::vector<std::uint32_t> order_;   // huge-port-count fallback
  // Lane scratch for the AoS adapter.
  std::vector<double> score_s_;
  std::vector<PortId> left_s_;
  std::vector<PortId> right_s_;
  std::vector<std::int64_t> payload_s_;
};

}  // namespace basrpt::matching
