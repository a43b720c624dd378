#include "exec/sweep.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "exec/artifacts.hpp"
#include "exec/cell_pool.hpp"

namespace basrpt::exec {

std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               std::uint64_t cell_index) {
  // Jump to the (index+1)-th point of the SplitMix64 sequence anchored
  // at the base seed, then mix once: equal bases with distinct indices
  // land on decorrelated streams, and index 0 never echoes the base.
  std::uint64_t state =
      base_seed + 0x9E3779B97F4A7C15ull * (cell_index + 1);
  return splitmix64(state);
}

Sweep& Sweep::add(std::string label, core::ExperimentConfig config,
                  std::function<void(const core::ExperimentResult&)> commit) {
  Cell cell;
  cell.kind = Cell::Kind::kExperiment;
  cell.label = std::move(label);
  cell.experiment = config;
  cell.on_experiment = std::move(commit);
  cells_.push_back(std::move(cell));
  return *this;
}

Sweep& Sweep::add_slotted(
    std::string label, switchsim::SlottedConfig config,
    std::function<sched::SchedulerPtr()> make_scheduler,
    std::function<switchsim::ArrivalStream()> make_stream,
    std::function<void(const switchsim::SlottedResult&)> commit) {
  Cell cell;
  cell.kind = Cell::Kind::kSlotted;
  cell.label = std::move(label);
  cell.slotted = std::move(config);
  cell.make_scheduler = std::move(make_scheduler);
  cell.make_stream = std::move(make_stream);
  cell.on_slotted = std::move(commit);
  cells_.push_back(std::move(cell));
  return *this;
}

CellOutput Sweep::compute(std::size_t i, obs::FlowTracer* cell_tracer) const {
  const Cell& cell = cells_[i];
  CellOutput out;
  if (cell.kind == Cell::Kind::kExperiment) {
    core::ExperimentConfig config = cell.experiment;
    if (cell_tracer != nullptr && config.tracer != nullptr) {
      config.tracer = cell_tracer;
    }
    out.experiment = core::run_experiment(config);
    return out;
  }
  switchsim::SlottedConfig config = cell.slotted;
  if (cell_tracer != nullptr && config.tracer != nullptr) {
    config.tracer = cell_tracer;
  }
  if (cell.resume_state) {
    config.resume_from = cell.resume_state.get();
  }
  sched::SchedulerPtr scheduler = cell.make_scheduler();
  BASRPT_REQUIRE(scheduler != nullptr, "slotted cell factory returned null");
  out.slotted = switchsim::run_slotted(config, *scheduler, cell.make_stream());
  return out;
}

void Sweep::commit(std::size_t i, const CellOutput& out) const {
  const Cell& cell = cells_[i];
  if (cell.kind == Cell::Kind::kExperiment) {
    if (cell.on_experiment) {
      cell.on_experiment(*out.experiment);
    }
    return;
  }
  if (cell.on_slotted) {
    cell.on_slotted(*out.slotted);
  }
}

void run_cells(int jobs, std::size_t count, obs::FlowTracer* session_tracer,
               const std::function<void(std::size_t, obs::FlowTracer*)>& task,
               const std::function<void(std::size_t)>& commit) {
  CellPool pool(jobs);
  const bool shard = pool.jobs() > 1 && count > 1;
  std::vector<std::unique_ptr<CellArtifacts>> artifacts(count);
  pool.run(
      count,
      [&](std::size_t i) {
        if (!shard) {
          task(i, session_tracer);
          return;
        }
        artifacts[i] =
            std::make_unique<CellArtifacts>(session_tracer != nullptr);
        obs::ScopedRegistryBind bind(artifacts[i]->registry());
        task(i, artifacts[i]->tracer());
      },
      [&](std::size_t i) {
        if (shard) {
          artifacts[i]->absorb(session_tracer);
          artifacts[i].reset();
        }
        commit(i);
      });
}

void Sweep::run(
    int jobs, obs::FlowTracer* session_tracer, std::size_t first,
    const std::function<void(std::size_t, const CellOutput&)>& before_commit) {
  std::vector<std::optional<CellOutput>> outputs(size());
  run_cells(
      jobs, size() - first, session_tracer,
      [&](std::size_t k, obs::FlowTracer* tracer) {
        outputs[first + k] = compute(first + k, tracer);
      },
      [&](std::size_t k) {
        const std::size_t i = first + k;
        if (before_commit) {
          before_commit(i, *outputs[i]);
        }
        commit(i, *outputs[i]);
        outputs[i].reset();
      });
}

}  // namespace basrpt::exec
