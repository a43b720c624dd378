// In-memory span recording for the traced run. The harness opens a span
// around every call it makes into a layer's public function (decide,
// traffic next, arrival pull, feed parse, ...); spans nest through an
// explicit stack, so each carries its parent. Per-name totals are kept
// for every call; the individual spans are kept up to a cap (the count
// dropped past it is reported) and written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span names: one per layer boundary the harness times.
enum class SpanName : std::uint32_t {
  kUnit = 0,        // one whole workload run
  kSchedDecide,     // sched::Scheduler::decide_into
  kTrafficNext,     // workload::TrafficSource::next
  kArrivalPull,     // switchsim::ArrivalStream invocation
  kFeedParse,       // srv::FeedReader::next
  kTopoReplay,      // topo::Fabric::route_into + MaxMinSolver::solve_into
  kCount
};
inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);
const char* span_name(SpanName name);

/// One kept span; `parent` indexes the enclosing span among the kept
/// ones, or is kNoParent for a root (or a parent past the keep limit).
struct SpanInterval {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep_limit = 100000)
      : keep_limit_(keep_limit) {}

  /// Opens a span under the innermost open one.
  void open(SpanName name) {
    const std::uint32_t parent =
        stack_.empty() ? SpanInterval::kNoParent : stack_.back().kept;
    Open o;
    o.name = name;
    o.start_ns = now_ns();
    o.kept = SpanInterval::kNoParent;
    if (spans_.size() < keep_limit_) {
      o.kept = static_cast<std::uint32_t>(spans_.size());
      spans_.push_back({static_cast<std::uint32_t>(name), parent, o.start_ns,
                        o.start_ns});
    } else {
      ++dropped_;
    }
    stack_.push_back(o);
  }

  /// Closes the innermost span and returns its duration.
  std::uint64_t close() {
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t end = now_ns();
    if (o.kept != SpanInterval::kNoParent) {
      spans_[o.kept].end_ns = end;
    }
    const std::uint64_t dur = end - o.start_ns;
    const std::size_t k = static_cast<std::size_t>(o.name);
    ++calls_[k];
    total_ns_[k] += dur;
    return dur;
  }

  std::uint64_t calls(SpanName n) const {
    return calls_[static_cast<std::size_t>(n)];
  }
  std::uint64_t total_ns(SpanName n) const {
    return total_ns_[static_cast<std::size_t>(n)];
  }
  const std::vector<SpanInterval>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes {"spans":[{name,start_ns,end_ns,parent}...], totals} as JSON.
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  struct Open {
    SpanName name;
    std::uint64_t start_ns;
    std::uint32_t kept;  // index into spans_, or kNoParent when dropped
  };
  std::size_t keep_limit_;
  std::vector<SpanInterval> spans_;
  std::vector<Open> stack_;
  std::uint64_t dropped_ = 0;
  std::uint64_t calls_[kSpanNames] = {};
  std::uint64_t total_ns_[kSpanNames] = {};
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanName name) : rec_(rec) {
    if (rec_ != nullptr) {
      rec_->open(name);
    }
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->close();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace e2ebench
