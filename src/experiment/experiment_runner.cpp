#include "experiment/experiment_runner.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>

#include "util/error.h"
#include "util/json_writer.h"
#include "util/parallel.h"

namespace cl {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] std::string bench_name(const ExperimentSpec& spec,
                                     const ExperimentCell& cell) {
  return spec.name() + "_" + cell.slug;
}

/// The per-cell BENCH file, in the exact shape bench_json.h's Runner
/// writes (bench / schema_version / threads / wall_seconds / throughput /
/// metrics) so tools/compare_bench_json.py consumes both alike.
void write_cell_json(const std::string& path, const std::string& bench,
                     const CellOutcome& outcome, double wall_seconds,
                     unsigned threads) {
  JsonObject root;
  root.set("bench", bench);
  root.set("schema_version", std::int64_t{1});
  root.set("threads", static_cast<std::int64_t>(threads));
  root.set("wall_seconds", wall_seconds);
  if (outcome.sessions > 0) {
    root.set("sessions", outcome.sessions);
    root.set("sessions_per_second",
             wall_seconds > 0 ? outcome.sessions / wall_seconds : 0.0);
  }
  root.set("metrics", outcome.metrics);
  std::ofstream out(path);
  out << root.render() << "\n";
  if (!out.good()) {
    throw IoError("cannot write cell result file '" + path + "'");
  }
}

}  // namespace

void print_matrix(std::ostream& out, const ExperimentSpec& spec) {
  const std::vector<ExperimentCell> cells = spec.cells();
  out << "experiment '" << spec.name() << "': " << cells.size() << " cell"
      << (cells.size() == 1 ? "" : "s");
  if (!spec.axes().empty()) {
    out << " over " << spec.axes().size() << " ax"
        << (spec.axes().size() == 1 ? "is" : "es");
  }
  out << "\n";
  if (!spec.description().empty()) {
    out << "  " << spec.description() << "\n";
  }
  for (const ExperimentAxis& axis : spec.axes()) {
    out << "  axis " << axis.name << ":";
    for (const std::string& value : axis.values) out << " " << value;
    out << "\n";
  }
  for (const ExperimentCell& cell : cells) {
    out << "  [" << cell.index << "] " << cell.slug << "\n";
  }
}

ExperimentRunResult run_experiment(const ExperimentSpec& spec,
                                   const ExperimentRunConfig& config,
                                   std::ostream* progress) {
  const auto run_start = Clock::now();
  const std::vector<ExperimentCell> cells = spec.cells();
  std::filesystem::create_directories(config.out_dir);

  // One shared plan for every cell (cell_runner.h). Each cell's file and
  // progress line land as soon as the cell is priced.
  const unsigned total = resolve_threads(config.threads);
  std::vector<CellConfig> configs;
  configs.reserve(cells.size());
  for (const ExperimentCell& cell : cells) configs.push_back(cell.config);
  ExperimentRunResult run;
  run.cells.resize(cells.size());
  std::mutex progress_mutex;
  CellPlanRun plan = run_cell_plan(
      configs, total,
      [&](std::size_t i, const CellOutcome& outcome, double seconds) {
        CellRunRecord& record = run.cells[i];
        record.cell = cells[i];
        record.wall_seconds = seconds;
        record.file = "BENCH_" + bench_name(spec, cells[i]) + ".json";
        write_cell_json(
            (std::filesystem::path(config.out_dir) / record.file).string(),
            bench_name(spec, cells[i]), outcome, seconds, total);
        if (progress != nullptr) {
          const std::lock_guard<std::mutex> lock(progress_mutex);
          *progress << "  [" << cells[i].index + 1 << "/" << cells.size()
                    << "] " << cells[i].slug << "  ("
                    << json_number(seconds) << " s)\n";
        }
      });
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    run.cells[i].outcome = std::move(plan.outcomes[i]);
  }
  run.wall_seconds = seconds_since(run_start);

  // The manifest: one BENCH_<spec>.json naming every cell file, itself
  // bench-shaped so the CI gate (--require) covers it too.
  JsonObject manifest;
  manifest.set("bench", spec.name());
  manifest.set("schema_version", std::int64_t{1});
  manifest.set("threads", static_cast<std::int64_t>(total));
  manifest.set("wall_seconds", run.wall_seconds);
  if (!spec.description().empty()) {
    manifest.set("description", spec.description());
  }
  JsonObject axes;
  for (const ExperimentAxis& axis : spec.axes()) {
    axes.set(axis.name, axis.values);
  }
  manifest.set("axes", axes);
  std::vector<JsonObject> cell_entries;
  for (const CellRunRecord& record : run.cells) {
    JsonObject entry;
    entry.set("index", record.cell.index);
    entry.set("slug", record.cell.slug);
    entry.set("bench", bench_name(spec, record.cell));
    entry.set("file", record.file);
    cell_entries.push_back(std::move(entry));
  }
  manifest.set("cells", cell_entries);
  JsonObject metrics;
  metrics.set("cells", static_cast<std::int64_t>(run.cells.size()));
  metrics.set("axes", static_cast<std::int64_t>(spec.axes().size()));
  metrics.set("traces_generated",
              static_cast<std::int64_t>(plan.traces_generated));
  metrics.set("simulations", static_cast<std::int64_t>(plan.simulations));
  manifest.set("metrics", metrics);

  run.manifest_path =
      (std::filesystem::path(config.out_dir) /
       ("BENCH_" + spec.name() + ".json"))
          .string();
  std::ofstream out(run.manifest_path);
  out << manifest.render() << "\n";
  if (!out.good()) {
    throw IoError("cannot write manifest '" + run.manifest_path + "'");
  }
  return run;
}

}  // namespace cl
