// Low-overhead run-health metrics: named counters, gauges, and log-scale
// latency histograms collected in a Registry.
//
// Each simulation run is single-threaded, so none of this locks. The
// parallel sweep runner (src/exec) gives every concurrent cell its own
// Registry shard via the thread-local active() override and merges the
// shards back into the global registry in cell-submission order, which
// keeps the lock-free hot path while making multi-threaded sweeps safe.
// The instrumentation contract is *passivity*: recording a metric may
// never touch the RNG, the event calendar, or a scheduling decision, so
// runs with and without observability produce bit-identical results. The
// global enable flag keeps the off path to a single predictable branch
// (ScopedTimer does not even read the clock when disabled).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace basrpt::obs {

/// Global instrumentation switch. Off by default; benches flip it on
/// when --metrics/--trace is requested.
bool enabled();
void set_enabled(bool on);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

  /// Folds another counter in (shard merge): counts simply add.
  void merge_from(const Counter& other) { value_ += other.value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-written value plus the maximum ever written (peak tracking).
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > max_ || !set_) {
      max_ = v;
    }
    set_ = true;
  }
  double value() const { return value_; }
  double max() const { return max_; }
  bool is_set() const { return set_; }
  void reset() { *this = Gauge{}; }

  /// Folds another gauge in (shard merge). Applied in cell-submission
  /// order this reproduces the sequential outcome: the later shard's
  /// last write wins, the peak is the max over both.
  void merge_from(const Gauge& other) {
    if (!other.set_) {
      return;
    }
    value_ = other.value_;
    max_ = set_ && max_ > other.max_ ? max_ : other.max_;
    set_ = true;
  }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
  bool set_ = false;
};

/// Histogram of non-negative integer samples (nanoseconds by convention)
/// with power-of-two bucket edges: bucket k counts values in
/// [2^k, 2^(k+1)), values of 0 land in bucket 0. Log-scale bucketing via
/// one bit-scan per sample — no std::log on the hot path — covering the
/// full 64-bit range (sub-nanosecond to centuries).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void add(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v < min_) {
      min_ = v;
    }
    if (v > max_) {
      max_ = v;
    }
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Approximate quantile (q in [0, 1]) using the geometric midpoint of
  /// the bucket holding the q-th sample; exact at the extremes thanks to
  /// the tracked min/max.
  double quantile(double q) const;

  std::uint64_t bucket_count(std::size_t k) const { return counts_[k]; }
  /// Lower edge of bucket k (0 for k == 0, else 2^k).
  static std::uint64_t bucket_lower(std::size_t k) {
    return k == 0 ? 0 : std::uint64_t{1} << k;
  }
  static std::size_t bucket_of(std::uint64_t v) {
    return v == 0 ? 0
                  : static_cast<std::size_t>(63 - __builtin_clzll(v));
  }

  void reset() { *this = LatencyHistogram{}; }

  /// Folds another histogram in (shard merge): buckets, count, and sum
  /// add; min/max combine. Order-independent.
  void merge_from(const LatencyHistogram& other) {
    for (std::size_t k = 0; k < kBuckets; ++k) {
      counts_[k] += other.counts_[k];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ > 0 && other.min_ < min_) {
      min_ = other.min_;
    }
    if (other.max_ > max_) {
      max_ = other.max_;
    }
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// Named-metric registry. Lookups return stable references (std::map
/// nodes never move), so hot paths resolve a metric once and keep the
/// pointer. `global()` is the process-wide instance; the simulators
/// record into `active()`, which is global() unless the calling thread
/// has bound a shard (ScopedRegistryBind). Tests construct their own.
class Registry {
 public:
  static Registry& global();

  /// The registry the current thread should record into: its bound
  /// shard if a ScopedRegistryBind is live, else global(). This is what
  /// keeps per-cell metrics isolated under the parallel sweep runner
  /// without a lock on the recording path.
  static Registry& active();

  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  LatencyHistogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  /// Free-form text annotation (e.g. the watchdog's stall diagnostics, a
  /// health state machine's last transition reason). Notes are for post
  /// mortems — exporters write them verbatim; there is no arithmetic.
  /// Last write wins, both locally and across shard merges.
  void set_note(const std::string& name, const std::string& value) {
    notes_[name] = value;
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::string>& notes() const { return notes_; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           notes_.empty();
  }

  /// Drops every metric (names included); used between test cases and by
  /// benches that run several experiments and want per-run numbers.
  void reset();

  /// Folds a shard's metrics into this registry. The per-type merge
  /// rules (counters add, gauges last-write-wins, histograms combine)
  /// make a sequence of merges in cell-submission order reproduce the
  /// registry a sequential run would have built, and the operation is
  /// associative: merging shard groups in any grouping — as long as the
  /// overall order is preserved — yields the same registry.
  void merge_from(const Registry& other);

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
  std::map<std::string, std::string> notes_;
};

/// Routes Registry::active() to `shard` for the lifetime of the binder,
/// on the constructing thread only. The parallel cell runner binds each
/// cell's shard around the cell's compute; nesting restores the previous
/// binding on destruction. Passing nullptr is a no-op binding (active()
/// stays global()).
class ScopedRegistryBind {
 public:
  explicit ScopedRegistryBind(Registry* shard);
  ~ScopedRegistryBind();
  ScopedRegistryBind(const ScopedRegistryBind&) = delete;
  ScopedRegistryBind& operator=(const ScopedRegistryBind&) = delete;

 private:
  Registry* previous_;
};

/// Records the wall-clock lifetime of a scope into a LatencyHistogram,
/// in nanoseconds. Arms only when obs::enabled(); the off path never
/// reads the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& hist)
      : hist_(enabled() ? &hist : nullptr) {
    if (hist_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      hist_->add(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace basrpt::obs
