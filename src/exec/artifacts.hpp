// Per-cell observability isolation for the parallel sweep runner.
//
// Under --jobs N, concurrent cells must not write into the shared
// metrics registry or flow tracer: both are single-threaded by
// contract. Each in-flight cell therefore gets a CellArtifacts — a
// private Registry shard (bound to the worker thread around the cell's
// compute via obs::ScopedRegistryBind) and a private FlowTracer.
// absorb(), called on the committing thread in submission order, folds
// the shard into the global registry and the trace records into the
// session tracer with run ids renumbered — reproducing exactly what a
// sequential run sharing those objects would have written.
#pragma once

#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace basrpt::exec {

class CellArtifacts {
 public:
  /// The metrics shard is unconditional: even with observability off
  /// the simulators still *name* metrics in Registry::active() (creating
  /// map nodes), so workers routed at global() would race. `shard_trace`
  /// gives the cell a private FlowTracer (point the cell's config at it).
  explicit CellArtifacts(bool shard_trace) {
    if (shard_trace) {
      tracer_.emplace();
    }
  }

  obs::Registry* registry() { return &registry_; }
  obs::FlowTracer* tracer() { return tracer_ ? &*tracer_ : nullptr; }

  /// Ordered commit: merges the shard into obs::Registry::global() and
  /// the trace records into `session_tracer` (ignored when either side
  /// is absent). Call on the committing thread only, once.
  void absorb(obs::FlowTracer* session_tracer) {
    obs::Registry::global().merge_from(registry_);
    if (tracer_ && session_tracer != nullptr) {
      session_tracer->absorb(*tracer_);
    }
  }

 private:
  obs::Registry registry_;
  std::optional<obs::FlowTracer> tracer_;
};

}  // namespace basrpt::exec
