// Declarative sweep API and the one loop over sweep cells.
//
// A Sweep is an ordered list of independent simulation cells —
// flow-level experiments (core::run_experiment) or slotted switch runs
// (switchsim::run_slotted) — each with a commit callback that consumes
// its result in submission order. Cells must be independent: each
// one's config carries its own seed, and nothing a cell computes may
// feed another cell's *compute* (commit callbacks may chain state —
// they always run in order, on one thread).
//
// run_cells is the only loop over sweep cells. bench::RunSession runs
// every bench sweep through it (after replaying a checkpointed prefix)
// and so do benches whose cells are arbitrary closures; tests call it
// directly. At one job it computes and commits each cell on the calling
// thread; otherwise the cells run on an exec::CellPool with per-cell
// registry and tracer shards, absorbed right before each in-order
// commit. Either way the output is the same (docs/PARALLEL.md).
//
// Seeding: benches that sweep a parameter usually run every cell at the
// same workload seed so curves are paired. Benches that want distinct
// per-cell streams derive them with derive_cell_seed, which feeds the
// cell index through SplitMix64 — cells get decorrelated seeds that
// depend only on (base seed, position), never on thread scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "switchsim/slotted_sim.hpp"

namespace basrpt::exec {

/// Deterministic per-cell seed: base seed and cell index through the
/// SplitMix64 mixer. Distinct indices give decorrelated streams; the
/// result depends only on the arguments, so any --jobs value sees the
/// same seeds.
std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               std::uint64_t cell_index);

/// One sweep cell. Exactly one of the two kinds is populated.
struct Cell {
  enum class Kind { kExperiment, kSlotted };

  Kind kind = Kind::kExperiment;
  std::string label;  // checkpoint cell name; unique, order-stable

  // kExperiment
  core::ExperimentConfig experiment{};
  std::function<void(const core::ExperimentResult&)> on_experiment;

  // kSlotted. The factories run on the worker thread; they must build a
  // freshly seeded scheduler/stream per call (resume replays the stream
  // against the checkpointed pull count).
  switchsim::SlottedConfig slotted{};
  std::function<sched::SchedulerPtr()> make_scheduler;
  std::function<switchsim::ArrivalStream()> make_stream;
  std::function<void(const switchsim::SlottedResult&)> on_slotted;

  /// Mid-run resume state (set by the checkpoint layer's replay step,
  /// consumed by compute). Shared_ptr: the state must outlive the
  /// worker-side run.
  std::shared_ptr<switchsim::SlottedSimState> resume_state;
};

/// A computed cell's result, passed from worker to committer.
struct CellOutput {
  std::optional<core::ExperimentResult> experiment;
  std::optional<switchsim::SlottedResult> slotted;
};

/// The one loop over sweep cells: runs `compute(i, tracer)` for i in
/// [0, count) and `commit(i)` on the calling thread in index order, at
/// `jobs` (resolve_jobs semantics).
///
///  * One job, or one cell: each cell is computed and then committed on
///    the calling thread, against the global registry, with `tracer` =
///    `session_tracer`.
///  * Otherwise the cells run on an exec::CellPool. Each gets a shard:
///    a registry bound to the worker around the compute, and as
///    `tracer` a trace shard (null when `session_tracer` is). The shard
///    is absorbed right before the cell's in-order commit.
///
/// Failures follow CellPool's rule: the exception of the lowest failing
/// index propagates after every cell before it has committed.
void run_cells(
    std::size_t count, int jobs, obs::FlowTracer* session_tracer,
    const std::function<void(std::size_t, obs::FlowTracer*)>& compute,
    const std::function<void(std::size_t)>& commit);

class Sweep {
 public:
  /// Declares an experiment cell. `commit` is invoked in submission
  /// order on the driving thread.
  Sweep& add(std::string label, core::ExperimentConfig config,
             std::function<void(const core::ExperimentResult&)> commit);

  /// Declares a slotted cell; see Cell for the factory contract.
  Sweep& add_slotted(
      std::string label, switchsim::SlottedConfig config,
      std::function<sched::SchedulerPtr()> make_scheduler,
      std::function<switchsim::ArrivalStream()> make_stream,
      std::function<void(const switchsim::SlottedResult&)> commit);

  std::size_t size() const { return cells_.size(); }
  Cell& cell(std::size_t i) { return cells_[i]; }
  const Cell& cell(std::size_t i) const { return cells_[i]; }

  /// Computes cell i (worker side). When `cell_tracer` is non-null it
  /// replaces the cell config's tracer (the per-cell shard); the
  /// config's own tracer pointer is used as-is otherwise.
  CellOutput compute(std::size_t i, obs::FlowTracer* cell_tracer) const;

  /// Invokes cell i's commit callback (committer side).
  void commit(std::size_t i, const CellOutput& out) const;

 private:
  std::vector<Cell> cells_;
};

}  // namespace basrpt::exec
