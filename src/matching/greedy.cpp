#include "matching/greedy.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "perf/profiler.hpp"

namespace basrpt::matching {

GreedyResult greedy_maximal(std::vector<ScoredCandidate> candidates,
                            PortId n_left, PortId n_right) {
  BASRPT_ASSERT(n_left > 0 && n_right > 0, "port counts must be positive");

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const ScoredCandidate& a, const ScoredCandidate& b) {
                     if (a.score != b.score) {
                       return a.score < b.score;
                     }
                     return a.payload < b.payload;
                   });

  GreedyResult result;
  result.matching.match_of_left.assign(static_cast<std::size_t>(n_left),
                                       kUnmatched);
  std::vector<bool> right_used(static_cast<std::size_t>(n_right), false);

  for (const ScoredCandidate& c : candidates) {
    BASRPT_ASSERT(c.left >= 0 && c.left < n_left, "ingress out of range");
    BASRPT_ASSERT(c.right >= 0 && c.right < n_right, "egress out of range");
    auto& slot = result.matching.match_of_left[static_cast<std::size_t>(c.left)];
    if (slot == kUnmatched && !right_used[static_cast<std::size_t>(c.right)]) {
      slot = c.right;
      right_used[static_cast<std::size_t>(c.right)] = true;
      result.selected_payloads.push_back(c.payload);
    }
  }
  return result;
}

namespace {

/// Maps a double to a 64-bit key whose unsigned order is the double's
/// numeric order: flip all bits of negatives, flip only the sign bit of
/// non-negatives. -0.0 is first collapsed onto +0.0, so equal scores
/// always map to equal keys and the payload tie-break fires exactly
/// where the comparison path's would.
std::uint64_t sortable_score(double score) {
  if (score == 0.0) {
    score = 0.0;  // normalizes -0.0
  }
  std::uint64_t bits;
  std::memcpy(&bits, &score, sizeof(bits));
  return (bits & 0x8000000000000000ull) != 0 ? ~bits
                                             : bits | 0x8000000000000000ull;
}

/// The sortable key coarsened to its top 32 bits: sign, exponent and
/// top 20 mantissa bits. Distinct scores may collide (the radix sort's
/// fixup pass resolves those runs exactly).
std::uint32_t coarse_score_key(double score) {
  return static_cast<std::uint32_t>(sortable_score(score) >> 32);
}

/// 8-bit LSD digits, four passes over the 32-bit key. 256 bins keep
/// the scatter's active write lines (one per bin) inside L1; wider
/// digits save a pass but thrash the cache and measure slower.
constexpr std::uint32_t kRadixBits = 8;
constexpr std::uint32_t kRadixBins = 1u << kRadixBits;
constexpr std::uint32_t kRadixMask = kRadixBins - 1;
constexpr std::size_t kRadixPasses = 4;

/// True iff 0 <= x[i] < limit for every i in [0, n).
bool ports_in_range(const PortId* x, std::size_t n, PortId limit) {
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < 0 || x[i] >= limit) {
      return false;
    }
  }
  return true;
}

}  // namespace

void GreedyMatcher::sort_recs_radix(const double* score,
                                    const std::int64_t* payload,
                                    std::size_t n) {
  rrecs_a_.resize(n);
  rrecs_b_.resize(n);

  // Build the records and all four digit histograms in one pass.
  std::uint32_t hist[kRadixPasses][kRadixBins];
  std::memset(hist, 0, sizeof(hist));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t key = coarse_score_key(score[i]);
    rrecs_a_[i] = {key, static_cast<std::uint32_t>(i)};
    ++hist[0][key & kRadixMask];
    ++hist[1][(key >> kRadixBits) & kRadixMask];
    ++hist[2][(key >> (2 * kRadixBits)) & kRadixMask];
    ++hist[3][key >> (3 * kRadixBits)];
  }

  // LSD passes; a digit position where all keys agree permutes nothing
  // and is skipped (scores from one decision often share sign and
  // exponent range, so a pass or two usually vanishes).
  RadixRec* src = rrecs_a_.data();
  RadixRec* dst = rrecs_b_.data();
  for (std::size_t p = 0; p < kRadixPasses; ++p) {
    std::uint32_t* h = hist[p];
    bool trivial = false;
    for (std::size_t v = 0; v < kRadixBins; ++v) {
      if (h[v] == n) {
        trivial = true;
        break;
      }
      if (h[v] != 0) {
        break;
      }
    }
    if (trivial) {
      continue;
    }
    std::uint32_t sum = 0;
    for (std::size_t v = 0; v < kRadixBins; ++v) {
      const std::uint32_t count = h[v];
      h[v] = sum;
      sum += count;
    }
    const std::uint32_t shift = static_cast<std::uint32_t>(p) * kRadixBits;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t v = (src[i].key >> shift) & kRadixMask;
      dst[h[v]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != rrecs_a_.data()) {
    rrecs_a_.swap(rrecs_b_);
  }

  // Radix LSD is stable, so equal-coarse-key runs are in original
  // candidate order — but the contract is exact (score, payload) order,
  // and a coarse key can collide for distinct scores. Re-sort each run
  // with the full comparator; runs are rare and short in practice.
  for (std::size_t i = 0; i + 1 < n;) {
    std::size_t j = i + 1;
    while (j < n && rrecs_a_[j].key == rrecs_a_[i].key) {
      ++j;
    }
    if (j - i > 1) {
      std::sort(rrecs_a_.begin() + static_cast<std::ptrdiff_t>(i),
                rrecs_a_.begin() + static_cast<std::ptrdiff_t>(j),
                [&](const RadixRec& a, const RadixRec& b) {
                  const double sa = score[a.idx];
                  const double sb = score[b.idx];
                  if (sa != sb) {
                    return sa < sb;
                  }
                  return payload[a.idx] < payload[b.idx];
                });
    }
    i = j;
  }
}

void GreedyMatcher::sort_full(const double* score,
                              const std::int64_t* payload, std::size_t n) {
  order_.resize(n);
  if (n < kRadixThreshold) {
    recs_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      recs_[i] = Rec{score[i], static_cast<std::uint32_t>(i)};
    }
    std::sort(recs_.begin(), recs_.end(), [&](const Rec& a, const Rec& b) {
      if (a.score != b.score) {
        return a.score < b.score;
      }
      return payload[a.idx] < payload[b.idx];
    });
    for (std::size_t i = 0; i < n; ++i) {
      order_[i] = recs_[i].idx;
    }
  } else {
    sort_recs_radix(score, payload, n);
    for (std::size_t i = 0; i < n; ++i) {
      order_[i] = rrecs_a_[i].idx;
    }
  }
}

void GreedyMatcher::merge_changes(const double* score,
                                  const std::int64_t* payload, std::size_t n,
                                  const LaneChanges& changes) {
  // Exact (score, payload) keys as two unsigned words, so comparisons
  // do not branch on score ties.
  const auto key_of = [&](std::uint32_t p) {
    return ExactKey{sortable_score(score[p]),
                    static_cast<std::uint64_t>(payload[p]) ^
                        0x8000000000000000ull,
                    p};
  };
  // Keys of unchanged lanes carry over from the previous merge; after a
  // full sort they are derived once from the current lanes.
  keys_.resize(n);
  if (!keys_valid_) {
    for (std::uint32_t p = 0; p < n; ++p) {
      keys_[p] = key_of(p);
    }
  }
  const std::size_t old_n = order_.size();
  if (changed_.size() < std::max(n, old_n)) {
    changed_.resize(std::max(n, old_n), 0);
  }
  fresh_.clear();
  for (std::size_t k = 0; k < changes.count; ++k) {
    const std::uint32_t p = changes.positions[k];
    BASRPT_ASSERT(p < n, "changed lane past the view's end");
    BASRPT_ASSERT(changed_[p] == 0, "changed lane listed twice");
    changed_[p] = 1;
    keys_[p] = key_of(p);
    fresh_.push_back(keys_[p]);
  }
  // Unchanged lanes keep their keys, so the kept order stays sorted
  // once the changed and truncated lanes are dropped from it. The
  // compaction writes every entry and advances only past kept ones.
  kept_.resize(old_n);
  std::uint32_t* kept = kept_.data();
  std::size_t n_kept = 0;
  for (const std::uint32_t idx : order_) {
    kept[n_kept] = idx;
    n_kept += static_cast<std::size_t>((idx < n) & (changed_[idx] == 0));
  }
  for (const ExactKey& f : fresh_) {
    changed_[f.idx] = 0;
  }
  BASRPT_ASSERT(n_kept + fresh_.size() == n,
                "lane changes do not cover the view");
  std::sort(fresh_.begin(), fresh_.end());
  order_.resize(n);
  std::uint32_t* out = order_.data();
  const ExactKey* key = keys_.data();
  std::size_t i = 0;
  for (const ExactKey& f : fresh_) {
    while (i < n_kept && key[kept[i]] < f) {
      *out++ = kept[i++];
    }
    *out++ = f.idx;
  }
  std::copy(kept + i, kept + n_kept, out);
  ++merges_;
}

void GreedyMatcher::match_lanes_into(const double* score, const PortId* left,
                                     const PortId* right,
                                     const std::int64_t* payload,
                                     std::size_t n, PortId n_left,
                                     PortId n_right,
                                     std::vector<std::int64_t>& out,
                                     const LaneChanges& changes) {
  BASRPT_ASSERT(n_left > 0 && n_right > 0, "port counts must be positive");
  out.clear();
  left_used_.assign(static_cast<std::size_t>(n_left), 0);
  right_used_.assign(static_cast<std::size_t>(n_right), 0);
  if (n == 0) {
    order_source_ = 0;
    return;
  }
  BASRPT_ASSERT(ports_in_range(left, n, n_left), "ingress out of range");
  BASRPT_ASSERT(ports_in_range(right, n, n_right), "egress out of range");

  {
    perf::ScopedPhase sort_phase(perf::Phase::kMatchSort);
    const bool same_source = changes.source != 0 &&
                             changes.source == order_source_ &&
                             n_left == order_n_left_ &&
                             n_right == order_n_right_;
    if (same_source && changes.sequence == order_sequence_) {
      BASRPT_ASSERT(order_.size() == n, "same stamp, different lane count");
    } else if (same_source && changes.known &&
               changes.sequence == order_sequence_ + 1 &&
               changes.count * kMergeChurnDivisor <= n) {
      merge_changes(score, payload, n, changes);
      keys_valid_ = true;
    } else {
      sort_full(score, payload, n);
      keys_valid_ = false;
    }
    order_source_ = changes.source;
    order_sequence_ = changes.sequence;
    order_n_left_ = n_left;
    order_n_right_ = n_right;
  }

  // No candidate can be accepted once every left (or every right) port
  // is taken, so the scan stops at max_accept winners — identical
  // selection, and on dense candidate sets most of the tail is skipped.
  const std::size_t max_accept =
      static_cast<std::size_t>(n_left < n_right ? n_left : n_right);
  std::size_t accepted = 0;
  for (const std::uint32_t idx : order_) {
    const auto l = static_cast<std::size_t>(left[idx]);
    const auto r = static_cast<std::size_t>(right[idx]);
    if (!left_used_[l] && !right_used_[r]) {
      left_used_[l] = 1;
      right_used_[r] = 1;
      out.push_back(payload[idx]);
      if (++accepted == max_accept) {
        return;
      }
    }
  }
}

}  // namespace basrpt::matching
