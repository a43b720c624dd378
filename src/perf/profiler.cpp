#include "perf/profiler.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <ostream>

#include "common/assert.hpp"
#include "common/json_escape.hpp"

namespace basrpt::perf {

namespace {

std::atomic<bool> g_profiling{false};
std::atomic<bool> g_alloc_counting{false};

// Allocation tallies. Index 0 is "no phase active" (unattributed);
// index 1 + phase is the phase the allocating thread was inside.
// Relaxed atomics: these are statistics, not synchronization.
struct AllocSlot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};
AllocSlot g_allocs[kPhaseCount + 1];

/// Current phase tag of this thread for allocation attribution:
/// 0 = none, otherwise 1 + static_cast<uint8_t>(phase). Plain POD TLS —
/// no dynamic initialization, safe to touch from the interposer.
thread_local std::uint8_t t_phase_tag = 0;
thread_local ScopedPhase* t_current_scope = nullptr;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kEventDispatch:
      return "event_dispatch";
    case Phase::kCalendarPush:
      return "calendar_push";
    case Phase::kCalendarPop:
      return "calendar_pop";
    case Phase::kDecide:
      return "decide";
    case Phase::kCandidateRepack:
      return "candidate_repack";
    case Phase::kLifecycleApply:
      return "lifecycle_apply";
    case Phase::kCheckpointWrite:
      return "checkpoint_write";
    case Phase::kMeasuredOp:
      return "measured_op";
    case Phase::kScoreKernel:
      return "score_kernel";
    case Phase::kMatchSort:
      return "match_sort";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

bool profiling() { return g_profiling.load(std::memory_order_relaxed); }

void set_profiling(bool on) {
  g_profiling.store(on, std::memory_order_relaxed);
  if (on) {
    g_alloc_counting.store(true, std::memory_order_relaxed);
  }
}

bool alloc_counting() {
  return g_alloc_counting.load(std::memory_order_relaxed);
}

void set_alloc_counting(bool on) {
  g_alloc_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_total() {
  std::uint64_t total = 0;
  for (const AllocSlot& slot : g_allocs) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

void note_alloc(std::size_t bytes) {
  if (!g_alloc_counting.load(std::memory_order_relaxed)) {
    return;
  }
  AllocSlot& slot = g_allocs[t_phase_tag];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

// ------------------------------------------------------------- Profiler

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

void Profiler::reset() {
  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    stats_[k] = PhaseStats{};
    hist_[k].reset();
  }
  for (AllocSlot& slot : g_allocs) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.bytes.store(0, std::memory_order_relaxed);
  }
  window_ns_ = 0;
  window_start_ns_ = 0;
  window_open_ = false;
  spans_.clear();
  spans_dropped_ = 0;
}

void Profiler::begin_window() {
  window_start_ns_ = now_ns();
  window_open_ = true;
}

void Profiler::end_window() {
  if (window_open_) {
    window_ns_ += now_ns() - window_start_ns_;
    window_open_ = false;
  }
}

PhaseStats Profiler::stats(Phase phase) const {
  const auto k = static_cast<std::size_t>(phase);
  PhaseStats s = stats_[k];
  s.allocs = g_allocs[k + 1].count.load(std::memory_order_relaxed);
  s.alloc_bytes = g_allocs[k + 1].bytes.load(std::memory_order_relaxed);
  return s;
}

const obs::LatencyHistogram& Profiler::histogram(Phase phase) const {
  return hist_[static_cast<std::size_t>(phase)];
}

PhaseStats Profiler::unattributed() const {
  PhaseStats s;
  s.allocs = g_allocs[0].count.load(std::memory_order_relaxed);
  s.alloc_bytes = g_allocs[0].bytes.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t Profiler::total_self_ns() const {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    total += stats_[k].self_ns;
  }
  return total;
}

double Profiler::coverage() const {
  if (window_ns_ == 0) {
    return 0.0;
  }
  return static_cast<double>(total_self_ns()) /
         static_cast<double>(window_ns_);
}

void Profiler::set_span_recording(bool on, std::size_t limit) {
  record_spans_ = on;
  span_limit_ = limit;
  if (on) {
    spans_.reserve(limit < 4096 ? limit : 4096);
  }
}

void Profiler::record(Phase phase, std::uint64_t start_ns,
                      std::uint64_t elapsed_ns, std::uint64_t self_ns) {
  const auto k = static_cast<std::size_t>(phase);
  ++stats_[k].calls;
  stats_[k].total_ns += elapsed_ns;
  stats_[k].self_ns += self_ns;
  hist_[k].add(elapsed_ns);
  if (record_spans_) {
    if (spans_.size() < span_limit_) {
      const std::uint64_t rel =
          start_ns >= window_start_ns_ ? start_ns - window_start_ns_ : 0;
      spans_.push_back({phase, rel, elapsed_ns});
    } else {
      ++spans_dropped_;
    }
  }
}

void Profiler::export_spans(obs::FlowTracer& tracer) const {
  for (const Span& span : spans_) {
    tracer.add_phase_span(phase_name(span.phase),
                          static_cast<double>(span.start_ns) * 1e-3,
                          static_cast<double>(span.dur_ns) * 1e-3);
  }
}

void Profiler::write_json(std::ostream& out) const {
  const auto num = [](auto v) { return json_number(static_cast<double>(v)); };
  out << "{\n  \"schema\": \"basrpt-profile-v1\",\n  \"window_ns\": "
      << num(window_ns_) << ",\n  \"coverage_frac\": " << num(coverage())
      << ",\n  \"phases\": ";
  bool any_phase = false;
  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    const auto phase = static_cast<Phase>(k);
    const PhaseStats s = stats(phase);
    if (s.calls == 0 && s.allocs == 0) {
      continue;
    }
    out << (any_phase ? ",\n" : "{\n") << "    \"" << phase_name(phase)
        << "\": {\n      \"calls\": " << num(s.calls)
        << ",\n      \"total_ns\": " << num(s.total_ns)
        << ",\n      \"self_ns\": " << num(s.self_ns);
    const obs::LatencyHistogram& h = hist_[k];
    if (h.count() > 0) {
      out << ",\n      \"ns_p50\": " << num(h.quantile(0.5))
          << ",\n      \"ns_p99\": " << num(h.quantile(0.99))
          << ",\n      \"ns_p999\": " << num(h.quantile(0.999));
    }
    out << ",\n      \"allocs\": " << num(s.allocs)
        << ",\n      \"alloc_bytes\": " << num(s.alloc_bytes) << "\n    }";
    any_phase = true;
  }
  out << (any_phase ? "\n  }" : "{}");
  const PhaseStats other = unattributed();
  out << ",\n  \"alloc_unattributed\": {\n    \"allocs\": "
      << num(other.allocs) << ",\n    \"alloc_bytes\": "
      << num(other.alloc_bytes) << "\n  },\n  \"spans_recorded\": "
      << num(spans_.size()) << ",\n  \"spans_dropped\": "
      << num(spans_dropped_) << "\n}\n";
}

void Profiler::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  BASRPT_REQUIRE(out.good(), "cannot open profile output file: " + path);
  write_json(out);
}

// ----------------------------------------------------------- ScopedPhase

ScopedPhase::ScopedPhase(Phase phase, obs::LatencyHistogram* sink)
    : armed_(profiling()), phase_(phase), sink_(sink) {
  if (armed_) {
    parent_ = t_current_scope;
    t_current_scope = this;
    prev_phase_tag_ = t_phase_tag;
    t_phase_tag = static_cast<std::uint8_t>(phase) + 1;
  } else if (sink_ == nullptr) {
    return;
  }
  start_ns_ = now_ns();
}

ScopedPhase::~ScopedPhase() {
  if (!armed_ && sink_ == nullptr) {
    return;
  }
  const std::uint64_t elapsed = now_ns() - start_ns_;
  if (sink_ != nullptr) {
    sink_->add(elapsed);
  }
  if (!armed_) {
    return;
  }
  t_current_scope = parent_;
  t_phase_tag = prev_phase_tag_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += elapsed;
  }
  const std::uint64_t self =
      elapsed >= child_ns_ ? elapsed - child_ns_ : 0;
  Profiler::global().record(phase_, start_ns_, elapsed, self);
}

}  // namespace basrpt::perf

// --------------------------------------------------- operator new/delete
//
// Global allocation interposer. Linked only into binaries that reference
// this translation unit (any perf:: symbol): with static archives the
// linker pulls this object solely to resolve those references, so
// binaries that never touch the perf subsystem keep the stock allocator.
// Each hook is malloc/free plus one relaxed load when counting is off.
// Sanitizer builds still intercept the underlying malloc/free, so ASan /
// TSan coverage is preserved.

namespace {

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  basrpt::perf::note_alloc(size);
  return p;
}

void* counted_alloc_nothrow(std::size_t size) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr) {
    basrpt::perf::note_alloc(size);
  }
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  const auto alignment = static_cast<std::size_t>(align);
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  basrpt::perf::note_alloc(size);
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
