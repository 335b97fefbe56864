// cell_runner.h — executes experiment cells against the library as one
// shared plan.
//
// A cell is the library-level twin of a `cl simulate` invocation with
// the equivalent flags: the same trace generation, the same SimConfig,
// the same analyzer/scheduler calls in the same order — so its SimResult
// is bit-identical to the CLI's (tests/test_experiment.cpp pins this at
// several --threads values). On top of the simulate core a cell may
// enable extension subsystems (adoption fixed point, edge caches,
// preload transform).
//
// Cells of one matrix mostly differ in how a simulation is *priced*, not
// in what is simulated, so run_cell_plan builds one plan for all of them
// in three stages (DESIGN.md §13):
//
//   1. generate each distinct trace once (metro, days, seed, scale and
//      the preload window/adoption);
//   2. simulate each distinct run once (trace, qb, overload — plus the
//      intensity curve for a schedule's preloaded re-run);
//   3. price every cell from the shared results.
//
// The stages form a task graph; the thread budget goes to whichever
// tasks are runnable, and each shared trace or result is freed after its
// last consumer. run_cell is the one-cell case of the same plan.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "experiment/experiment_spec.h"
#include "sim/metrics.h"
#include "util/json_writer.h"

namespace cl {

/// Everything one cell run produced.
struct CellOutcome {
  /// Key model outputs, BENCH_*.json "metrics"-object shaped, rendered
  /// with the same deterministic writer the benches use.
  JsonObject metrics;
  double sessions = 0;  ///< sessions simulated (throughput denominator)
  /// The simulator result (CellConfig::simulate cells only) — parity
  /// tests compare it field-for-field against a standalone simulate run.
  SimResult sim;
};

/// Everything one plan run produced.
struct CellPlanRun {
  std::vector<CellOutcome> outcomes;  ///< in config order
  std::size_t traces_generated = 0;  ///< distinct traces generated
  std::size_t simulations = 0;       ///< HybridSimulator runs
};

/// Receives each cell as soon as it is priced: its index, outcome and
/// wall time — the sum, over every task the cell consumes, of the task's
/// wall time divided by the number of cells consuming it, so the cells
/// sum to the plan's task time. Called concurrently from worker threads.
using CellDone =
    std::function<void(std::size_t cell, const CellOutcome&, double seconds)>;

/// Runs `configs` as one shared plan on `threads` worker threads (0 =
/// all cores). Every outcome is bit-identical to a standalone run_cell
/// of its config at any thread count; the counters depend only on the
/// configs.
[[nodiscard]] CellPlanRun run_cell_plan(const std::vector<CellConfig>& configs,
                                        unsigned threads,
                                        const CellDone& on_done = {});

/// Runs one cell with `threads` worker threads (0 = all cores) — the
/// one-cell plan. Results are bit-identical for every thread count.
[[nodiscard]] CellOutcome run_cell(const CellConfig& config,
                                   unsigned threads);

}  // namespace cl
