// The benchmark's own arithmetic: the percentile rule, self-time
// subtraction, medians and the output digest. Header-only and free of
// simulator types so tests/test_harness.cpp checks it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace e2ebench {

/// Fewest samples that must lie beyond a percentile before it is
/// reported; below this the tail is an anecdote, not a measurement.
inline constexpr std::uint64_t kMinBeyond = 10;

/// A percentile with the evidence behind it: `n` samples in total,
/// `beyond` of them strictly above `value`. `ok` is false when fewer
/// than kMinBeyond lie beyond, and then `value` must not be reported.
struct Percentile {
  double q = 0.0;
  double value = 0.0;
  std::uint64_t n = 0;
  std::uint64_t beyond = 0;
  bool ok = false;
};

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty vector.
inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile of exact samples: the value at rank
/// ceil(q * n); `beyond` counts the samples strictly greater than it.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.q = q;
  p.n = samples.size();
  if (samples.empty()) {
    return p;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(p.n));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(p.n))) - 1;
  p.value = samples[idx];
  const auto above = std::upper_bound(samples.begin(), samples.end(), p.value);
  p.beyond = static_cast<std::uint64_t>(samples.end() - above);
  p.ok = p.beyond >= kMinBeyond;
  return p;
}

/// Fixed-memory histogram of non-negative integer samples (nanoseconds)
/// with 64 linear sub-buckets per power of two, about 1.6% relative
/// resolution. Used for per-record and per-decision times, where a run
/// takes millions of samples and keeping them would inflate the very
/// peak RSS the benchmark reports.
class LogHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr int kMaxExp = 48;  // 2^48 ns: three days

  LogHistogram() : counts_(static_cast<std::size_t>(kMaxExp + 1) * kSub, 0) {}

  void add(std::uint64_t v) {
    ++counts_[index_of(v)];
    ++n_;
  }

  /// Nearest-rank percentile. The value is interpolated by rank inside
  /// the bucket holding rank ceil(q * n), as if its samples were spread
  /// evenly from its lower bound (exact for width-1 buckets); `beyond`
  /// counts the samples in higher buckets, which are strictly greater.
  Percentile percentile(double q) const {
    Percentile p;
    p.q = q;
    p.n = n_;
    if (n_ == 0) {
      return p;
    }
    const double rank_d = std::ceil(q * static_cast<double>(n_));
    const std::uint64_t rank = static_cast<std::uint64_t>(
        std::clamp(rank_d, 1.0, static_cast<double>(n_)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      if (cum + counts_[i] >= rank) {
        const double lo = static_cast<double>(lower_bound_of(i));
        const double width = static_cast<double>(width_of(i));
        const double within = static_cast<double>(rank - cum - 1) /
                              static_cast<double>(counts_[i]);
        p.value = lo + width * within;
        p.beyond = n_ - (cum + counts_[i]);
        p.ok = p.beyond >= kMinBeyond;
        return p;
      }
      cum += counts_[i];
    }
    return p;  // unreachable: rank <= n_
  }

  static std::size_t index_of(std::uint64_t v) {
    if (v < kSub) {
      return static_cast<std::size_t>(v);
    }
    int exp = 63 - __builtin_clzll(v);  // v in [2^exp, 2^(exp+1))
    if (exp > kMaxExp) {
      exp = kMaxExp;
      v = (std::uint64_t{1} << (kMaxExp + 1)) - 1;
    }
    const int shift = exp - kSubBits;
    const std::uint64_t sub = (v >> shift) - kSub;  // in [0, kSub)
    return static_cast<std::size_t>(exp - kSubBits + 1) * kSub +
           static_cast<std::size_t>(sub);
  }
  static std::uint64_t lower_bound_of(std::size_t i) {
    if (i < kSub) {
      return i;
    }
    const std::size_t block = i / kSub;  // >= 1
    const std::uint64_t sub = i % kSub;
    const int shift = static_cast<int>(block) - 1;
    return (kSub + sub) << shift;
  }
  static std::uint64_t width_of(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

/// Self time of a span: its duration minus the time its children
/// covered, floored at zero (child spans timed with their own clock
/// reads can overshoot the parent by a few nanoseconds).
inline std::uint64_t self_time(std::uint64_t total,
                               std::uint64_t children_total) {
  return children_total >= total ? 0 : total - children_total;
}

/// FNV-1a 64-bit digest over a canonical stream of typed fields. Doubles
/// enter by bit pattern, so a digest match means bit-identical outputs.
class Digest {
 public:
  Digest& add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    return *this;
  }
  Digest& add_i64(std::int64_t v) {
    return add_u64(static_cast<std::uint64_t>(v));
  }
  Digest& add_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add_u64(bits);
  }
  Digest& add_str(const std::string& s) {
    add_u64(s.size());
    for (const char c : s) {
      byte(static_cast<unsigned char>(c));
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// 16 lowercase hex digits, the form digests are pinned in.
inline std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return s;
}

}  // namespace e2ebench
