// experiment_runner.h — executes an ExperimentSpec's cells as one shared
// plan.
//
// The runner hands every expanded cell to cell_runner.h's plan, which
// generates each distinct trace once, simulates each distinct run once
// and prices every cell from the shared results, spending the thread
// budget on whichever tasks are runnable. Per-cell results do not depend
// on the worker count or on which cells share work, so the manifest and
// every per-cell file are byte-identical for any --threads (timing keys
// aside). Each cell writes BENCH_<spec>_<slug>.json in the bench_json.h
// shape as soon as it is priced, and the run finishes with a
// BENCH_<spec>.json manifest naming every cell file and counting the
// traces generated and simulations run.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "experiment/cell_runner.h"
#include "experiment/experiment_spec.h"

namespace cl {

struct ExperimentRunConfig {
  std::string out_dir = ".";  ///< created if missing
  /// Worker threads (0 = all cores), shared by every runnable task of
  /// the plan.
  unsigned threads = 0;
};

/// One executed cell, as recorded in the manifest.
struct CellRunRecord {
  ExperimentCell cell;
  CellOutcome outcome;
  std::string file;  ///< BENCH file name (relative to out_dir)
  /// The cell's share of the plan's task time (CellPlanRun::seconds).
  double wall_seconds = 0;
};

struct ExperimentRunResult {
  std::vector<CellRunRecord> cells;  ///< in cell-index order
  std::string manifest_path;
  double wall_seconds = 0;
};

/// Prints the expanded matrix (the `--dry-run` listing): one line per
/// cell with its slug and axis values, plus the cell count.
void print_matrix(std::ostream& out, const ExperimentSpec& spec);

/// Runs every cell and writes the per-cell files plus the manifest.
/// `progress` (optional) receives one line per finished cell, in
/// completion order.
[[nodiscard]] ExperimentRunResult run_experiment(
    const ExperimentSpec& spec, const ExperimentRunConfig& config,
    std::ostream* progress = nullptr);

}  // namespace cl
