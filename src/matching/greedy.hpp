// Greedy maximal matching over scored candidates.
//
// This is the primitive behind SRPT and fast BASRPT (Algorithm 1 of the
// paper): iterate candidates in non-decreasing score order and accept a
// candidate iff its ingress and egress ports are both still free. The
// result is a maximal matching over the candidate support.
#pragma once

#include <cstddef>
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

/// Which candidate lanes changed since the previous view from the same
/// source. fabric::CandidateCache stamps each view it hands out with its
/// own `source` id and a per-refresh `sequence`; when the refresh knows
/// exactly which lane positions it rewrote (`known`), `positions` lists
/// them, deduplicated. A lane not listed, below the new size, holds the
/// same values as in the view one sequence earlier. A default value
/// (source 0) carries no change information. Views whose lanes were
/// rewritten by anyone but the stamping source must not carry a stamp.
struct LaneChanges {
  std::uint64_t source = 0;    // 0: unstamped, no change information
  std::uint64_t sequence = 0;  // refresh number within `source`
  bool known = false;          // positions lists every rewritten lane
  const std::uint32_t* positions = nullptr;
  std::size_t count = 0;
};

/// Allocation-free variant of greedy_maximal for hot decision loops:
/// port-usage and sort scratch persist across calls, candidates arrive
/// as SoA lanes (the sched::CandidateView layout — the score lane is
/// often a view lane streamed with zero copies), and winners are
/// appended to `out`. The selection is identical to greedy_maximal
/// *provided payloads are distinct* (they are flow ids in the
/// schedulers): the (score, payload) key is then a total order, so no
/// two orderings can disagree.
///
/// The matcher keeps its last order as lane indices, tagged with the
/// stamp of the `changes` it was computed for. A call orders the lanes
/// one of three ways:
///  * same stamp as last time (a refresh that changed nothing): the
///    kept order is reused as is;
///  * the direct successor stamp with known changes, at most
///    1/kMergeChurnDivisor of the lanes: drop the changed and truncated
///    positions from the kept order, sort the changed lanes, merge;
///  * otherwise a full sort — below kRadixThreshold comparison-sort
///    {score, index} records, at or above it LSD radix sort of {coarse
///    32-bit score key, index} records, then an exact re-sort of each
///    run sharing a coarse key.
/// Reusing or merging is only sound when a lane's score depends on
/// nothing but that lane (and the port counts, which must match too);
/// callers whose keys depend on anything else pass no `changes`. The
/// accept scan stops once min(n_left, n_right) winners are accepted —
/// every later candidate would be rejected anyway. Input lanes are
/// never reordered.
class GreedyMatcher {
 public:
  /// Clears `out`, then appends the payloads of the accepted candidates
  /// in selection (sorted) order. Lane pointers must each hold `n`
  /// elements; scores must be NaN-free. No heap allocation once the
  /// scratch has warmed to the fabric size.
  void match_lanes_into(const double* score, const PortId* left,
                        const PortId* right, const std::int64_t* payload,
                        std::size_t n, PortId n_left, PortId n_right,
                        std::vector<std::int64_t>& out,
                        const LaneChanges& changes = {});

  /// Below this many candidates, comparison sort beats the radix
  /// sort's fixed per-call cost (four 256-bin histograms and their
  /// prefix sums).
  static constexpr std::size_t kRadixThreshold = 128;

  /// Merge only while at most n / kMergeChurnDivisor lanes changed.
  /// On the slotted 32-port SRPT run about 12% of 273 lanes change per
  /// slot and the merge is several times faster than the radix sort; on
  /// the 144-host flow-level run about 39% of 215 change and a merge
  /// measured 18% slower than the radix sort. A quarter sits between.
  static constexpr std::size_t kMergeChurnDivisor = 4;

  /// Calls that merged (tests check the merge path is exercised).
  std::uint64_t merges() const { return merges_; }

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

  /// Writes the exact (score, payload) order of all n lanes to order_.
  void sort_full(const double* score, const std::int64_t* payload,
                 std::size_t n);

  /// Sorts rrecs_a_ into exact (score, payload) order via LSD radix
  /// over coarse keys; handles any score distribution.
  void sort_recs_radix(const double* score, const std::int64_t* payload,
                       std::size_t n);

  /// Rewrites order_ for n lanes of which `changes` were rewritten since
  /// order_ was computed.
  void merge_changes(const double* score, const std::int64_t* payload,
                     std::size_t n, const LaneChanges& changes);

  std::vector<char> left_used_;
  std::vector<char> right_used_;
  std::vector<Rec> recs_;
  std::vector<RadixRec> rrecs_a_;
  std::vector<RadixRec> rrecs_b_;

  // The kept order and the stamp it was computed for; order_source_ 0
  // means there is none to reuse.
  std::vector<std::uint32_t> order_;
  std::uint64_t order_source_ = 0;
  std::uint64_t order_sequence_ = 0;
  PortId order_n_left_ = 0;
  PortId order_n_right_ = 0;
  // Merge scratch: exact keys by lane (set by a merge, so valid only
  // while keys_valid_), retained entries, sorted changed lanes, and a
  // per-lane changed flag that is reset before each merge returns.
  struct ExactKey {
    std::uint64_t hi;   // sortable score
    std::uint64_t lo;   // payload, sign bit flipped
    std::uint32_t idx;  // lane
    bool operator<(const ExactKey& o) const {
      return hi < o.hi || (hi == o.hi && lo < o.lo);
    }
  };
  std::vector<ExactKey> keys_;
  bool keys_valid_ = false;
  std::vector<std::uint32_t> kept_;
  std::vector<ExactKey> fresh_;
  std::vector<char> changed_;
  std::uint64_t merges_ = 0;
};

}  // namespace basrpt::matching
