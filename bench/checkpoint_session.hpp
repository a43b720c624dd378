// Checkpoint/resume wiring for the figure benches (--checkpoint-dir /
// --checkpoint-every / --resume; see docs/CHECKPOINT.md).
//
// Two granularities, one session:
//
//  * Experiment cells (core::run_experiment): every cell seeds a fresh
//    RNG and traffic source from its own config, so a cell's result
//    never depends on earlier cells. The session stores *finished*
//    cells; on resume they are replayed from the file bit-identically
//    and only the remaining cells run. A cell interrupted mid-run is
//    recomputed from its start (its progress is not checkpointable —
//    the flow-level calendar holds closures).
//
//  * Slotted cells (switchsim::run_slotted): at --jobs 1 additionally
//    support genuine mid-run capture. The simulator hands out a complete
//    SlottedSimState at slot boundaries (cadence, stall, SIGINT/
//    SIGTERM); resuming restores it and continues bit-identically.
//
// Either way the invariant is the same and tested: checkpoint + resume
// produces tables and figure CSVs byte-identical to an uninterrupted
// run, and with no checkpoint flags the benches are bit-identical to
// builds without this header (pay-for-use).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/experiment_state.hpp"
#include "ckpt/manager.hpp"
#include "ckpt/signal_guard.hpp"
#include "ckpt/slotted_state.hpp"
#include "ckpt/snapshot.hpp"
#include "common/cli.hpp"
#include "common/serial.hpp"
#include "exec/sweep.hpp"

namespace basrpt::bench {

/// Options excluded from the resume-compatibility fingerprint: outputs,
/// profiling and robustness toggles that cannot change simulation
/// results. Anything else — loads, seeds, horizons, fault plans — must
/// match between the checkpointing and the resuming invocation.
inline std::vector<std::string> fingerprint_excludes() {
  return {"checkpoint-dir", "checkpoint-every", "resume",   "metrics",
          "trace",          "heartbeat",        "plot-dir", "csv",
          "watchdog",       "paranoid",         "jobs",     "profile",
          "profile-out"};
}

/// bench::RunSession's private checkpoint store: the resume fingerprint,
/// replay of the stored cell prefix, commit cadence, atomic writes and
/// mid-run slotted state. Every mutation happens on the committing
/// thread in submission order, so a checkpoint file holds a *prefix* of
/// the sweep regardless of --jobs, and resuming one is indistinguishable
/// from resuming a sequential run.
class CheckpointSession {
 public:
  /// Construct after parse_common. `bench_name` is the checkpoint
  /// filename stem and must match on resume.
  CheckpointSession(const CliParser& cli, std::string bench_name)
      : bench_(std::move(bench_name)),
        dir_(cli.get_text("checkpoint-dir")),
        resume_(cli.get_text("resume")),
        every_(cli.get_integer("checkpoint-every")) {
    const std::string canon =
        bench_ + "\n" + cli.canonical_values(fingerprint_excludes());
    fingerprint_ = u64_to_hex(crc32_of(canon)).substr(8);
    if (every_ < 0) {
      std::fprintf(stderr, "error: --checkpoint-every must be >= 0\n");
      std::exit(2);
    }
    try {
      if (!dir_.empty()) {
        ckpt::CheckpointManagerConfig mc;
        mc.dir = dir_;
        mc.run_id = bench_;
        manager_.emplace(mc);
        guard_.emplace();  // arm SIGINT/SIGTERM → checkpoint-and-exit
      }
      if (!resume_.empty()) {
        load_resume();
      }
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "error: checkpoint: %s\n", e.what());
      std::exit(2);
    }
  }

  bool enabled() const { return manager_.has_value(); }

  /// Replays the stored prefix of `sweep` from the snapshot (no
  /// recompute) through each cell's commit callback, hands the first
  /// unstored cell its mid-run state if the snapshot captured one, and
  /// returns that cell's index. Labels must be unique and arrive in the
  /// same order on every invocation — they name the cell in the file.
  std::size_t replay(exec::Sweep& sweep) {
    std::size_t i = 0;
    for (; i < sweep.size() && snapshot_ && i < stored_.size(); ++i) {
      const exec::Cell& cell = sweep.cell(i);
      const bool slotted = cell.kind == exec::Cell::Kind::kSlotted;
      const Stored& s = stored_[i];
      const std::string kind = slotted ? "slotted" : "experiment";
      if (s.kind != kind || s.label != cell.label) {
        mismatch(i, s.kind + " '" + s.label + "'",
                 kind + " '" + cell.label + "'");
      }
      exec::CellOutput out;
      if (slotted) {
        out.slotted = ckpt::read_slotted_result(*snapshot_, s.prefix,
                                                cell.slotted.watched_src,
                                                cell.slotted.watched_dst);
      } else {
        out.experiment = ckpt::read_experiment_result(
            *snapshot_, s.prefix, cell.experiment.watched_src,
            cell.experiment.watched_dst);
      }
      std::fprintf(stderr, "checkpoint: cell '%s' replayed (no recompute)\n",
                   cell.label.c_str());
      cells_.push_back(Cell{cell.label, out});
      sweep.commit(i, out);
    }
    if (i < sweep.size() && wip_cell_ == static_cast<std::int64_t>(i) &&
        sweep.cell(i).kind == exec::Cell::Kind::kSlotted) {
      exec::Cell& cell = sweep.cell(i);
      if (wip_label_ != cell.label) {
        mismatch(i, wip_label_, cell.label);
      }
      cell.resume_state = std::make_shared<switchsim::SlottedSimState>(
          ckpt::read_slotted_state(*snapshot_));
      std::fprintf(stderr,
                   "checkpoint: cell '%s' resuming mid-run at slot %lld\n",
                   cell.label.c_str(),
                   static_cast<long long>(cell.resume_state->slot));
    }
    return i;
  }

  /// Arms mid-run capture on the slotted cells from `first` on: every
  /// --checkpoint-every slots (0 = interrupt/stall only) the running
  /// cell's state is written next to the committed prefix. Only valid
  /// when cells run one at a time on the committing thread (--jobs 1):
  /// a snapshot of a cell that may commit after its successors cannot
  /// be ordered.
  void arm_capture(exec::Sweep& sweep, std::size_t first) {
    if (!enabled()) {
      return;
    }
    for (std::size_t i = first; i < sweep.size(); ++i) {
      exec::Cell& cell = sweep.cell(i);
      if (cell.kind != exec::Cell::Kind::kSlotted) {
        continue;
      }
      cell.slotted.checkpoint_every = every_;
      cell.slotted.on_checkpoint =
          [this, label = cell.label](const switchsim::SlottedSimState& s) {
            write_checkpoint(&s, label);
          };
    }
  }

  /// Ordered commit of a computed cell: records it and honors the
  /// checkpoint cadence.
  void record(const exec::Cell& cell, const exec::CellOutput& out) {
    cells_.push_back(Cell{cell.label, out});
    wip_newest_ = false;
    // Cell cadence: --checkpoint-every counts cells for experiment
    // benches (and doubles as a slot cadence inside slotted runs); 0
    // means "after every cell".
    const std::int64_t every_cells = every_ > 0 ? every_ : 1;
    if (static_cast<std::int64_t>(cells_.size()) % every_cells == 0) {
      write_checkpoint(nullptr, "");
    }
  }

  /// Interruption: persists the committed prefix — unless the running
  /// cell already wrote its own mid-run state, which must stay the
  /// newest file.
  void write_interrupted() {
    if (wip_newest_) {
      return;
    }
    try {
      write_checkpoint(nullptr, "");
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "checkpoint write failed: %s\n", e.what());
    }
  }

 private:
  struct Cell {
    std::string label;
    exec::CellOutput out;
  };
  struct Stored {
    std::string kind;
    std::string label;
    std::string prefix;
  };

  [[noreturn]] void mismatch(std::size_t idx, const std::string& stored,
                             const std::string& current) {
    std::fprintf(stderr,
                 "error: checkpoint: cell %zu is '%s' in the checkpoint "
                 "but '%s' in this invocation — different bench version "
                 "or flags?\n",
                 idx, stored.c_str(), current.c_str());
    std::exit(2);
  }

  void load_resume() {
    std::string path = resume_;
    if (path == "latest") {
      if (dir_.empty()) {
        throw ConfigError("--resume latest needs --checkpoint-dir");
      }
      path = ckpt::CheckpointManager::latest(dir_, bench_);
      if (path.empty()) {
        throw ConfigError("no checkpoint found in " + dir_ + " for " +
                          bench_);
      }
    }
    snapshot_ = ckpt::Snapshot::from_file(path);
    std::fprintf(stderr, "checkpoint: resuming from %s\n", path.c_str());

    ckpt::SectionReader meta = snapshot_->reader("meta");
    const std::string bench = meta.text("bench");
    if (bench != bench_) {
      throw ConfigError("checkpoint belongs to bench '" + bench +
                        "', this is '" + bench_ + "'");
    }
    const std::string fp = meta.text("fingerprint");
    if (fp != fingerprint_) {
      throw ConfigError(
          "checkpoint fingerprint " + fp + " does not match this "
          "invocation's " + fingerprint_ +
          " — run with the same simulation flags as the original");
    }
    const std::uint64_t cells = meta.u64("cells");
    for (std::uint64_t i = 0; i < cells; ++i) {
      const std::string cell = meta.text("cell");
      const std::size_t space = cell.find(' ');
      if (space == std::string::npos) {
        meta.fail("cell entry must be '<kind> <label>'");
      }
      Stored s;
      s.kind = cell.substr(0, space);
      s.label = cell.substr(space + 1);
      s.prefix = "cell" + std::to_string(i);
      if (s.kind != "experiment" && s.kind != "slotted") {
        meta.fail("unknown cell kind '" + s.kind + "'");
      }
      stored_.push_back(std::move(s));
    }
    const std::uint64_t has_wip = meta.u64("wip");
    if (has_wip > 1) {
      meta.fail("wip must be 0 or 1");
    }
    if (has_wip == 1) {
      wip_cell_ = static_cast<std::int64_t>(stored_.size());
      wip_label_ = meta.text("wip_label");
    }
    meta.expect_done();

    if (manager_) {
      // Continue numbering after the loaded file so rotation never
      // deletes it before the first post-resume checkpoint lands.
      try {
        manager_->set_sequence(ckpt::CheckpointManager::sequence_of(path) +
                               1);
      } catch (const ConfigError&) {
        // Hand-named file outside the manager's pattern: keep default.
      }
    }
  }

  /// Serializes completed cells (+ optionally one mid-run slotted state)
  /// and writes them through the manager's atomic path.
  void write_checkpoint(const switchsim::SlottedSimState* wip,
                        const std::string& wip_label) {
    if (!enabled()) {
      return;
    }
    ckpt::SnapshotWriter w;
    auto& meta = w.section("meta");
    meta.text("bench", bench_);
    meta.text("fingerprint", fingerprint_);
    meta.u64("cells", cells_.size());
    for (const Cell& c : cells_) {
      meta.text("cell", (c.out.experiment ? "experiment " : "slotted ") +
                            c.label);
    }
    meta.u64("wip", wip != nullptr ? 1 : 0);
    if (wip != nullptr) {
      meta.text("wip_label", wip_label);
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const std::string prefix = "cell" + std::to_string(i);
      const Cell& c = cells_[i];
      if (c.out.experiment) {
        ckpt::write_experiment_result(w, prefix, *c.out.experiment);
      } else {
        ckpt::write_slotted_result(w, prefix, *c.out.slotted);
      }
    }
    if (wip != nullptr) {  // its position is cells_.size(), via meta
      ckpt::write_slotted_state(w, *wip);
    }
    const std::string path = manager_->write(w.str());
    wip_newest_ = wip != nullptr;
    std::fprintf(stderr, "checkpoint: wrote %s (%zu cells%s)\n",
                 path.c_str(), cells_.size(),
                 wip != nullptr ? " + mid-run state" : "");
  }

  std::string bench_;
  std::string dir_;
  std::string resume_;
  std::int64_t every_;
  std::string fingerprint_;

  std::optional<ckpt::CheckpointManager> manager_;
  std::optional<ckpt::SignalGuard> guard_;
  std::optional<ckpt::Snapshot> snapshot_;
  std::vector<Stored> stored_;
  std::int64_t wip_cell_ = -1;
  std::string wip_label_;
  std::vector<Cell> cells_;
  bool wip_newest_ = false;  // the newest file holds a mid-run state
};

}  // namespace basrpt::bench
