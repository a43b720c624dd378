// Unit tests for src/matching: greedy, Hopcroft–Karp, Hungarian,
// Birkhoff–von-Neumann, maximal-matching enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "matching/bipartite.hpp"
#include "matching/birkhoff.hpp"
#include "matching/enumerate.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hungarian.hpp"

namespace basrpt::matching {
namespace {

// -------------------------------------------------------------- bipartite

TEST(Bipartite, ValidMatchingAcceptsPartial) {
  Matching m{{1, kUnmatched, 0}};
  EXPECT_TRUE(is_valid_matching(m, 3));
}

TEST(Bipartite, ValidMatchingRejectsDuplicateRight) {
  Matching m{{1, 1, kUnmatched}};
  EXPECT_FALSE(is_valid_matching(m, 3));
}

TEST(Bipartite, MaximalityDetectsAddableEdge) {
  const std::vector<Edge> edges = {{0, 0}, {1, 1}};
  Matching only_first{{0, kUnmatched}};
  EXPECT_FALSE(is_maximal_matching(only_first, edges, 2));
  Matching both{{0, 1}};
  EXPECT_TRUE(is_maximal_matching(both, edges, 2));
}

// ----------------------------------------------------------------- greedy

TEST(Greedy, PrefersLowerScores) {
  // Two candidates compete for ingress 0; the lower score wins.
  std::vector<ScoredCandidate> c = {
      {0, 0, 5.0, 100},
      {0, 1, 1.0, 101},
  };
  const auto result = greedy_maximal(c, 2, 2);
  ASSERT_EQ(result.selected_payloads.size(), 1u);
  EXPECT_EQ(result.selected_payloads[0], 101);
  EXPECT_EQ(result.matching.match_of_left[0], 1);
}

TEST(Greedy, ProducesMaximalMatching) {
  std::vector<ScoredCandidate> c = {
      {0, 0, 1.0, 1}, {0, 1, 2.0, 2}, {1, 0, 3.0, 3}, {1, 1, 4.0, 4}};
  const auto result = greedy_maximal(c, 2, 2);
  // Greedy takes (0,0) then must take (1,1).
  EXPECT_EQ(result.selected_payloads.size(), 2u);
  std::vector<Edge> edges;
  for (const auto& cand : c) {
    edges.push_back({cand.left, cand.right});
  }
  EXPECT_TRUE(is_maximal_matching(result.matching, edges, 2));
}

TEST(Greedy, TieBrokenByPayloadDeterministically) {
  std::vector<ScoredCandidate> c = {{0, 0, 1.0, 7}, {0, 1, 1.0, 3}};
  const auto result = greedy_maximal(c, 1, 2);
  ASSERT_EQ(result.selected_payloads.size(), 1u);
  EXPECT_EQ(result.selected_payloads[0], 3);
}

TEST(Greedy, EmptyCandidatesGiveEmptyDecision) {
  const auto result = greedy_maximal({}, 4, 4);
  EXPECT_TRUE(result.selected_payloads.empty());
  EXPECT_EQ(result.matching.size(), 0u);
}

TEST(Greedy, BlockedPortsSkipCandidates) {
  // Three flows all from ingress 0: only one can go.
  std::vector<ScoredCandidate> c = {
      {0, 0, 3.0, 1}, {0, 1, 1.0, 2}, {0, 2, 2.0, 3}};
  const auto result = greedy_maximal(c, 1, 3);
  ASSERT_EQ(result.selected_payloads.size(), 1u);
  EXPECT_EQ(result.selected_payloads[0], 2);
}

// Splits AoS candidates into the SoA lanes GreedyMatcher takes and runs
// one match.
void match_candidates(GreedyMatcher& matcher,
                      const std::vector<ScoredCandidate>& candidates,
                      PortId n_left, PortId n_right,
                      std::vector<std::int64_t>& selected) {
  std::vector<double> score;
  std::vector<PortId> left;
  std::vector<PortId> right;
  std::vector<std::int64_t> payload;
  for (const ScoredCandidate& c : candidates) {
    score.push_back(c.score);
    left.push_back(c.left);
    right.push_back(c.right);
    payload.push_back(c.payload);
  }
  matcher.match_lanes_into(score.data(), left.data(), right.data(),
                           payload.data(), candidates.size(), n_left,
                           n_right, selected);
}

// Oracle check for GreedyMatcher: whichever sort path a call takes, it
// must pick exactly the payloads greedy_maximal's stable_sort picks, in
// the same order.
void expect_matcher_matches_oracle(std::vector<ScoredCandidate> candidates,
                                   PortId n_left, PortId n_right) {
  const GreedyResult oracle = greedy_maximal(candidates, n_left, n_right);
  GreedyMatcher matcher;
  std::vector<std::int64_t> selected;
  match_candidates(matcher, candidates, n_left, n_right, selected);
  EXPECT_EQ(selected, oracle.selected_payloads);
}

TEST(Greedy, MatcherRejectsOutOfRangePorts) {
  // A negative ingress, an ingress equal to n_left and an egress equal to
  // n_right each throw, at the first and the last lane index, on both
  // sides of the radix threshold.
  const PortId n_left = 8;
  const PortId n_right = 6;
  GreedyMatcher matcher;
  std::vector<std::int64_t> selected;
  for (const std::size_t n : {std::size_t{5}, GreedyMatcher::kRadixThreshold - 1,
                              GreedyMatcher::kRadixThreshold,
                              std::size_t{300}}) {
    std::vector<ScoredCandidate> good;
    for (std::size_t k = 0; k < n; ++k) {
      good.push_back({static_cast<PortId>(k % n_left),
                      static_cast<PortId>(k % n_right),
                      static_cast<double>(k % 7),
                      static_cast<std::int64_t>(k)});
    }
    EXPECT_NO_THROW(match_candidates(matcher, good, n_left, n_right, selected));
    for (const std::size_t pos : {std::size_t{0}, n - 1}) {
      for (int kind = 0; kind < 3; ++kind) {
        std::vector<ScoredCandidate> bad = good;
        if (kind == 0) {
          bad[pos].left = -1;
        } else if (kind == 1) {
          bad[pos].left = n_left;
        } else {
          bad[pos].right = n_right;
        }
        EXPECT_THROW(match_candidates(matcher, bad, n_left, n_right, selected),
                     SimulationError)
            << "n=" << n << " pos=" << pos << " kind=" << kind;
      }
    }
  }
}

TEST(Greedy, MatcherRadixMatchesStableSortOracle) {
  // Large candidate sets with deliberate score collisions: scores drawn
  // from a coarse grid (many exact ties, resolved by payload), plus a
  // sprinkle of +0.0/-0.0 and negatives. Payloads are distinct, as the
  // schedulers guarantee.
  for (std::uint64_t seed : {3u, 7u, 23u}) {
    Rng rng(seed);
    const PortId ports = 48;
    std::vector<ScoredCandidate> candidates;
    for (int k = 0; k < 2000; ++k) {
      ScoredCandidate c;
      c.left = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.right = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      const std::int64_t grid = rng.uniform_int(-8, 8);
      c.score = rng.bernoulli(0.25)
                    ? static_cast<double>(grid) * 1500.0
                    : rng.uniform(-1e6, 1e6);
      if (grid == 0 && rng.bernoulli(0.5)) {
        c.score = rng.bernoulli(0.5) ? 0.0 : -0.0;
      }
      c.payload = k;
      candidates.push_back(c);
    }
    ASSERT_GE(candidates.size(), GreedyMatcher::kRadixThreshold);
    expect_matcher_matches_oracle(std::move(candidates), ports, ports);
  }
}

TEST(Greedy, MatcherBimodalScoresMatchOracle) {
  // Threshold-SRPT-shaped keys: two clusters a class offset (1e12)
  // apart, plus 1% outliers outside both. The clusters differ in
  // exponent, so their coarse radix keys never interleave; inside the
  // 1e12 cluster the coarse keys (2^19 apart) collide for most records,
  // leaving long runs for the exact fix-up sort. Both seeds must match
  // the oracle.
  for (std::uint64_t seed : {5u, 17u}) {
    Rng rng(seed);
    const PortId ports = 48;
    std::vector<ScoredCandidate> candidates;
    for (int k = 0; k < 3000; ++k) {
      ScoredCandidate c;
      c.left = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.right = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.score = rng.uniform(0.0, 1e6) + (rng.bernoulli(0.5) ? 0.0 : 1e12);
      if (rng.bernoulli(0.01)) {
        c.score = rng.bernoulli(0.5) ? -1e5 : 3e12;
      }
      c.payload = k;
      candidates.push_back(c);
    }
    expect_matcher_matches_oracle(std::move(candidates), ports, ports);
  }
}

TEST(Greedy, MatcherSortedInputMatchesOracle) {
  // Input that arrives in selection order gets no shortcut: it is
  // sorted like any other. Runs of equal scores share a coarse key and
  // exercise the payload tiebreak, and one swapped pair of tie payloads
  // must be put back in payload order.
  Rng rng(29);
  const PortId ports = 32;
  for (const bool scramble_tie_payloads : {false, true}) {
    std::vector<ScoredCandidate> candidates;
    for (int k = 0; k < 1500; ++k) {
      ScoredCandidate c;
      c.left = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.right = static_cast<PortId>(rng.uniform_int(0, ports - 1));
      c.score = static_cast<double>(k / 3);  // runs of equal scores
      c.payload = k;
      candidates.push_back(c);
    }
    if (scramble_tie_payloads) {
      std::swap(candidates[30].payload, candidates[31].payload);
    }
    expect_matcher_matches_oracle(std::move(candidates), ports, ports);
  }
}

TEST(Greedy, MatcherLogSpreadScoresMatchOracle) {
  // Scores spanning ~50 orders of magnitude: every radix digit of the
  // coarse key varies, so no pass is skipped, and the exact order must
  // still land.
  Rng rng(31);
  const PortId ports = 48;
  std::vector<ScoredCandidate> candidates;
  for (int k = 0; k < 2000; ++k) {
    ScoredCandidate c;
    c.left = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    c.right = static_cast<PortId>(rng.uniform_int(0, ports - 1));
    c.score = std::ldexp(rng.uniform(1.0, 2.0),
                         static_cast<int>(rng.uniform_int(-80, 80)));
    c.payload = k;
    candidates.push_back(c);
  }
  expect_matcher_matches_oracle(std::move(candidates), ports, ports);
}

TEST(Greedy, MatcherComparisonPathMatchesOracleBelowThreshold) {
  // One candidate below the radix threshold and exactly at it: both
  // sides of the path split must agree with the oracle.
  for (std::size_t n : {GreedyMatcher::kRadixThreshold - 1,
                        GreedyMatcher::kRadixThreshold}) {
    Rng rng(n);
    std::vector<ScoredCandidate> candidates;
    for (std::size_t k = 0; k < n; ++k) {
      candidates.push_back(
          {static_cast<PortId>(rng.uniform_int(0, 15)),
           static_cast<PortId>(rng.uniform_int(0, 15)),
           static_cast<double>(rng.uniform_int(0, 5)),
           static_cast<std::int64_t>(k)});
    }
    expect_matcher_matches_oracle(std::move(candidates), 16, 16);
  }
}

TEST(Greedy, MatcherHugePortCountsMatchOracle) {
  // Port counts past 65535 on both sort paths (one input below the
  // radix threshold, one above). Ports x and x + 65536 share their low
  // 16 bits: a matcher that truncated them would see false conflicts
  // and reject winners the oracle keeps.
  const PortId ports = 70000;
  Rng rng(37);
  for (const std::size_t n : {std::size_t{2000},
                              GreedyMatcher::kRadixThreshold / 2}) {
    std::vector<ScoredCandidate> candidates;
    for (std::size_t k = 0; k < n; ++k) {
      const auto port = [&] {
        return static_cast<PortId>(rng.uniform_int(0, 63) +
                                   (rng.bernoulli(0.5) ? 65536 : 0));
      };
      ScoredCandidate c;
      c.left = port();
      c.right = port();
      c.score = rng.bernoulli(0.2)
                    ? static_cast<double>(rng.uniform_int(0, 4))  // ties
                    : rng.uniform(0.0, 1e6);
      c.payload = static_cast<std::int64_t>(k);
      candidates.push_back(c);
    }
    expect_matcher_matches_oracle(std::move(candidates), ports, ports);
  }
}

TEST(Greedy, MatcherReusedAcrossCallsStaysExact) {
  // The matcher's scratch persists across calls; stale state from a big
  // call must not leak into a later small one (and vice versa).
  GreedyMatcher matcher;
  std::vector<std::int64_t> selected;
  Rng rng(91);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = (round % 2 == 0) ? 800 : 20;
    std::vector<ScoredCandidate> candidates;
    for (std::size_t k = 0; k < n; ++k) {
      candidates.push_back(
          {static_cast<PortId>(rng.uniform_int(0, 31)),
           static_cast<PortId>(rng.uniform_int(0, 31)),
           rng.uniform(0.0, 100.0), static_cast<std::int64_t>(k)});
    }
    const GreedyResult oracle = greedy_maximal(candidates, 32, 32);
    match_candidates(matcher, candidates, 32, 32, selected);
    EXPECT_EQ(selected, oracle.selected_payloads);
  }
}

// ------------------------------------------------------------ HopcroftKarp

TEST(HopcroftKarp, PerfectOnCompleteBipartite) {
  BipartiteGraph g(4, 4);
  for (PortId l = 0; l < 4; ++l) {
    for (PortId r = 0; r < 4; ++r) {
      g.add_edge(l, r);
    }
  }
  EXPECT_EQ(maximum_matching_size(g), 4u);
}

TEST(HopcroftKarp, FindsAugmentingPaths) {
  // Greedy-by-order would match (0,0) and block; HK must find size 2 via
  // augmentation: 0-0, 1-0 only ... structure: L0→{R0,R1}, L1→{R0}.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const Matching m = hopcroft_karp(g);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.match_of_left[1], 0);
  EXPECT_EQ(m.match_of_left[0], 1);
}

TEST(HopcroftKarp, EmptyGraphHasEmptyMatching) {
  BipartiteGraph g(3, 3);
  EXPECT_EQ(maximum_matching_size(g), 0u);
}

TEST(HopcroftKarp, HandlesUnbalancedSides) {
  BipartiteGraph g(3, 1);
  g.add_edge(0, 0);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  EXPECT_EQ(maximum_matching_size(g), 1u);
}

TEST(HopcroftKarp, MatchesKnownNonTrivialGraph) {
  // Max matching is 3 (not 4): R legs constrained.
  BipartiteGraph g(4, 4);
  g.add_edge(0, 0);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  g.add_edge(3, 2);
  EXPECT_EQ(maximum_matching_size(g), 3u);
}

// -------------------------------------------------------------- Hungarian

double brute_force_best(const std::vector<std::vector<double>>& w) {
  const std::size_t n = w.size();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  double best = -1e300;
  do {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += w[i][perm[i]];
    }
    best = std::max(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Hungarian, MatchesBruteForceOnRandomMatrices) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 5);
    std::vector<std::vector<double>> w(n, std::vector<double>(n));
    for (auto& row : w) {
      for (auto& v : row) {
        v = rng.uniform(0.0, 100.0);
      }
    }
    const Matching m = max_weight_perfect(w);
    EXPECT_EQ(m.size(), n);
    EXPECT_NEAR(matching_weight(m, w), brute_force_best(w), 1e-9)
        << "trial " << trial;
  }
}

TEST(Hungarian, HandlesZeroAndNegativeWeights) {
  std::vector<std::vector<double>> w = {{0.0, -5.0}, {-5.0, 0.0}};
  const Matching m = max_weight_perfect(w);
  EXPECT_NEAR(matching_weight(m, w), 0.0, 1e-12);
}

TEST(Hungarian, DiagonalDominantPicksDiagonal) {
  std::vector<std::vector<double>> w = {
      {10.0, 1.0, 1.0}, {1.0, 10.0, 1.0}, {1.0, 1.0, 10.0}};
  const Matching m = max_weight_perfect(w);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(m.match_of_left[i], static_cast<PortId>(i));
  }
}

// --------------------------------------------------------------- Birkhoff

TEST(Birkhoff, CompletionYieldsDoublyStochastic) {
  RateMatrix rates = {{0.2, 0.3, 0.0},
                      {0.1, 0.0, 0.4},
                      {0.0, 0.2, 0.1}};
  const RateMatrix m = complete_to_doubly_stochastic(rates);
  for (std::size_t i = 0; i < 3; ++i) {
    double row = 0.0;
    double col = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      row += m[i][j];
      col += m[j][i];
      EXPECT_GE(m[i][j] + 1e-12, rates[i][j]) << "entries must not shrink";
    }
    EXPECT_NEAR(row, 1.0, 1e-6);
    EXPECT_NEAR(col, 1.0, 1e-6);
  }
}

TEST(Birkhoff, CompletionRejectsInadmissible) {
  RateMatrix over = {{0.8, 0.4}, {0.0, 0.1}};  // row 0 sums to 1.2
  EXPECT_THROW(complete_to_doubly_stochastic(over), ConfigError);
}

TEST(Birkhoff, DecompositionReconstructsMatrix) {
  RateMatrix rates = {{0.25, 0.35, 0.2},
                      {0.3, 0.25, 0.4},
                      {0.4, 0.3, 0.25}};
  const RateMatrix m = complete_to_doubly_stochastic(rates);
  const auto terms = birkhoff_decompose(m);
  double total_weight = 0.0;
  for (const auto& t : terms) {
    EXPECT_GT(t.weight, 0.0);
    EXPECT_EQ(t.permutation.size(), 3u);
    total_weight += t.weight;
  }
  EXPECT_NEAR(total_weight, 1.0, 1e-6);
  const RateMatrix rebuilt = reconstruct(terms, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(rebuilt[i][j], m[i][j], 1e-6);
    }
  }
}

TEST(Birkhoff, TermCountWithinBirkhoffBound) {
  Rng rng(17);
  const std::size_t n = 6;
  RateMatrix rates(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      rates[i][j] = rng.uniform(0.0, 1.0 / static_cast<double>(n));
    }
  }
  const auto terms =
      birkhoff_decompose(complete_to_doubly_stochastic(rates));
  EXPECT_LE(terms.size(), (n - 1) * (n - 1) + 1 + 2);
}

TEST(Birkhoff, IdentityDecomposesToOneTerm) {
  RateMatrix eye = {{1.0, 0.0}, {0.0, 1.0}};
  const auto terms = birkhoff_decompose(eye);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_NEAR(terms[0].weight, 1.0, 1e-9);
  EXPECT_EQ(terms[0].permutation.match_of_left[0], 0);
  EXPECT_EQ(terms[0].permutation.match_of_left[1], 1);
}

TEST(Birkhoff, MaxLineSumComputed) {
  RateMatrix rates = {{0.2, 0.3}, {0.6, 0.1}};
  EXPECT_NEAR(max_line_sum(rates), 0.8, 1e-12);  // column 0
}

// -------------------------------------------------------------- enumerate

TEST(Enumerate, SingleEdgeHasOneMaximalMatching) {
  EXPECT_EQ(count_maximal_matchings({{0, 0}}, 1, 1), 1u);
}

TEST(Enumerate, TwoDisjointEdgesHaveOneMaximalMatching) {
  // Both edges can always be added, so the only maximal matching is both.
  EXPECT_EQ(count_maximal_matchings({{0, 0}, {1, 1}}, 2, 2), 1u);
}

TEST(Enumerate, SharedIngressYieldsOnePerEdge) {
  EXPECT_EQ(count_maximal_matchings({{0, 0}, {0, 1}}, 1, 2), 2u);
}

TEST(Enumerate, CompleteBipartite3x3HasFactorialMaximalMatchings) {
  std::vector<Edge> edges;
  for (PortId l = 0; l < 3; ++l) {
    for (PortId r = 0; r < 3; ++r) {
      edges.push_back({l, r});
    }
  }
  // On K_{n,n} every maximal matching is perfect: n! of them.
  EXPECT_EQ(count_maximal_matchings(edges, 3, 3), 6u);
}

TEST(Enumerate, AllVisitedMatchingsAreMaximal) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 0}, {2, 1}, {2, 2}};
  std::size_t visits = 0;
  for_each_maximal_matching(edges, 3, 3, [&](const Matching& m) {
    ++visits;
    EXPECT_TRUE(is_maximal_matching(m, edges, 3));
  });
  EXPECT_GT(visits, 0u);
}

TEST(Enumerate, DuplicateEdgesIgnored) {
  EXPECT_EQ(count_maximal_matchings({{0, 0}, {0, 0}, {0, 0}}, 1, 1), 1u);
}

TEST(Enumerate, RefusesLargeFabrics) {
  std::vector<Edge> edges = {{0, 0}};
  EXPECT_THROW(
      count_maximal_matchings(edges, 64, 64),
      ConfigError);
}

}  // namespace
}  // namespace basrpt::matching
