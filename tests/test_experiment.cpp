// Tests of the experiment subsystem (src/experiment/): the spec loader's
// reject matrix (every malformed spec is a distinct, actionable
// ParseError), the matrix expansion semantics (order, pinning,
// exclusion, canonical value forms), the parity contracts — a cell run
// is bit-identical to a standalone `cl simulate` composition at every
// thread count, and the checked-in ablation specs reproduce the direct
// subsystem computations exactly — and the shared-plan contracts: cells
// that share traces and simulations price bit-identically to standalone
// runs, and the plan's work counters do not depend on the thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "experiment/cell_runner.h"
#include "experiment/experiment_runner.h"
#include "experiment/experiment_spec.h"
#include "ext/adoption.h"
#include "ext/edge_cache.h"
#include "sim/hybrid_sim.h"
#include "topology/metro_registry.h"
#include "trace/synthetic.h"
#include "trace/trace_view.h"
#include "util/error.h"
#include "util/json.h"
#include "util/parallel.h"

#ifndef CL_TEST_DATA_DIR
#error "CMake must define CL_TEST_DATA_DIR"
#endif
#ifndef CL_EXPERIMENTS_DIR
#error "CMake must define CL_EXPERIMENTS_DIR (the checked-in specs)"
#endif

namespace {

using namespace cl;

// --- reject matrix ------------------------------------------------------

/// Asserts that `text` is rejected with a message containing `expected`.
void expect_reject(const std::string& text, const std::string& expected) {
  try {
    (void)ExperimentSpec::parse(text, "t");
    FAIL() << "spec was accepted; expected error containing: " << expected;
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(ExperimentSpecReject, MalformedJson) {
  expect_reject("{ \"axes\": ", "JSON parse error at line 1");
  expect_reject("[1, 2]", "spec root must be a JSON object");
}

TEST(ExperimentSpecReject, UnknownAxisName) {
  expect_reject(R"({"axes": {"bogus": [1]}})", "unknown axis 'bogus'");
}

TEST(ExperimentSpecReject, UnknownSpecKey) {
  expect_reject(R"({"cells": []})", "unknown spec key 'cells'");
}

TEST(ExperimentSpecReject, EmptyAxisValueList) {
  expect_reject(R"({"axes": {"adoption": []}})",
                "axis 'adoption' has an empty value list");
}

TEST(ExperimentSpecReject, DuplicateAxis) {
  expect_reject(R"({"axes": {"adoption": [50], "adoption": [5]}})",
                "duplicate axis 'adoption'");
}

TEST(ExperimentSpecReject, DuplicateBaseParameter) {
  expect_reject(R"({"base": {"days": 1, "days": 2},
                    "axes": {"adoption": [50]}})",
                "duplicate base parameter 'days'");
}

TEST(ExperimentSpecReject, BaseAndAxisConflict) {
  expect_reject(R"({"base": {"adoption": 50, "simulate": "off"},
                    "axes": {"adoption": [5]}})",
                "declared both in base and as an axis");
}

TEST(ExperimentSpecReject, NonExistentIntensityCsvPath) {
  expect_reject(
      R"({"base": {"intensity": "/nonexistent/curve.csv"}})",
      "no 24-hour intensity CSV exists at that path");
}

TEST(ExperimentSpecReject, OutOfRangeAdoption) {
  expect_reject(R"({"axes": {"adoption": [-1]}})",
                "adoption value '-1' is out of range");
  expect_reject(R"({"axes": {"adoption": [0]}})",
                "adoption value '0' is out of range");
}

TEST(ExperimentSpecReject, OutOfRangePreloadAdoption) {
  expect_reject(R"({"base": {"preload_adoption": 1.5}})",
                "preload_adoption value '1.5' is out of range [0, 1]");
}

TEST(ExperimentSpecReject, BadPreloadWindow) {
  expect_reject(R"({"base": {"preload": "9"}})",
                "must be \"START-END\" hours");
  expect_reject(R"({"base": {"preload": "9-7"}})",
                "out of range (need 0 <= START < END <= 24)");
}

TEST(ExperimentSpecReject, UnknownMetroAndScheduleMode) {
  expect_reject(R"({"axes": {"metro": ["atlantis"]}})", "unknown metro");
  expect_reject(R"({"base": {"schedule": "sometimes"}})",
                "unknown schedule mode 'sometimes'");
}

TEST(ExperimentSpecReject, NonIntegerSeedAndEdgeCache) {
  expect_reject(R"({"base": {"seed": 1.5}})",
                "seed '1.5' must be a non-negative integer");
  expect_reject(R"({"axes": {"edge_cache": [2.5]}})",
                "whole number of items");
}

TEST(ExperimentSpecReject, ScheduleNeedsIntensity) {
  expect_reject(R"({"base": {"schedule": "all"}})", "needs an intensity");
}

TEST(ExperimentSpecReject, CellRunsNothing) {
  expect_reject(R"({"base": {"simulate": "off"}})", "would run nothing");
}

TEST(ExperimentSpecReject, PinNamesUndeclaredAxisOrValue) {
  expect_reject(R"({"axes": {"adoption": [50]}, "pin": {"days": 1}})",
                "pin names 'days' which is not a declared axis");
  expect_reject(R"({"axes": {"adoption": [50]}, "pin": {"adoption": 5}})",
                "not among the axis's declared values");
}

TEST(ExperimentSpecReject, ExcludeNamesUndeclaredAxis) {
  expect_reject(R"({"axes": {"adoption": [50]},
                    "exclude": [{"days": 1}]})",
                "exclude names 'days' which is not a declared axis");
}

TEST(ExperimentSpecReject, ZeroCellsAfterExclusion) {
  expect_reject(R"({"axes": {"adoption": [50]},
                    "exclude": [{"adoption": 50}]})",
                "zero cells");
}

TEST(ExperimentSpecReject, MissingSpecFile) {
  EXPECT_THROW((void)ExperimentSpec::parse_file("/nonexistent/spec.json"),
               ParseError);
}

// --- expansion semantics ------------------------------------------------

TEST(ExperimentSpecExpand, CrossProductDeclarationOrderLastAxisFastest) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"simulate": "off"},
          "axes": {"adoption": [50, 5], "edge_cache": [2, 10]}})",
      "t");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].slug, "adoption-50_edge_cache-2");
  EXPECT_EQ(cells[1].slug, "adoption-50_edge_cache-10");
  EXPECT_EQ(cells[2].slug, "adoption-5_edge_cache-2");
  EXPECT_EQ(cells[3].slug, "adoption-5_edge_cache-10");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
  EXPECT_EQ(cells[1].config.adoption, 50.0);
  EXPECT_EQ(cells[1].config.edge_cache, 10u);
  EXPECT_FALSE(cells[1].config.simulate);
}

TEST(ExperimentSpecExpand, CanonicalValueForms) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"days": 2.50},
          "axes": {"adoption": [0.50], "overload": [true, "no"]}})",
      "t");
  ASSERT_EQ(spec.axes().size(), 2u);
  EXPECT_EQ(spec.axes()[0].values, std::vector<std::string>{"0.5"});
  EXPECT_EQ(spec.axes()[1].values,
            (std::vector<std::string>{"on", "off"}));
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].slug, "adoption-0.5_overload-on");
  EXPECT_EQ(cells[0].config.days, 2.5);
  EXPECT_TRUE(cells[0].config.overload);
  EXPECT_FALSE(cells[1].config.overload);
}

TEST(ExperimentSpecExpand, PinRestrictsAxisToSubset) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"simulate": "off"},
          "axes": {"adoption": [50, 5, 0.5]},
          "pin": {"adoption": [5, 0.5]}})",
      "t");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].slug, "adoption-5");
  EXPECT_EQ(cells[1].slug, "adoption-0.5");
}

TEST(ExperimentSpecExpand, ExcludeDropsMatchingCellsAndReindexes) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"simulate": "off"},
          "axes": {"adoption": [50, 5], "edge_cache": [2, 10]},
          "exclude": [{"adoption": 50, "edge_cache": 2}]})",
      "t");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].slug, "adoption-50_edge_cache-10");
  EXPECT_EQ(cells[0].index, 0u);
  EXPECT_EQ(cells[2].slug, "adoption-5_edge_cache-10");
  EXPECT_EQ(cells[2].index, 2u);
}

TEST(ExperimentSpecExpand, NoAxesYieldsOneBaseCell) {
  const ExperimentSpec spec =
      ExperimentSpec::parse(R"({"base": {"days": 1}})", "fallback_name");
  EXPECT_EQ(spec.name(), "fallback_name");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].slug, "base");
  EXPECT_EQ(cells[0].config.days, 1.0);
  EXPECT_TRUE(cells[0].config.simulate);
}

// --- parity contracts ---------------------------------------------------

/// Reads one metric back out of the deterministic JSON rendering (the
/// writer is %.17g round-trip, so the parsed double is bit-exact).
double metric(const JsonObject& metrics, const std::string& key) {
  const JsonValue parsed = JsonValue::parse(metrics.render());
  const JsonValue* value = parsed.find(key);
  EXPECT_NE(value, nullptr) << "missing metric " << key << " in "
                            << metrics.render();
  return value == nullptr ? 0 : value->as_number();
}

/// The golden cell (tests/data/golden_spec.json) against a hand-composed
/// standalone simulate run — the exact call sequence of cmd_simulate.cpp
/// — at --threads 1, 2, 7 and hw (0). SimResult fields must be
/// bit-identical and the rendered metrics byte-identical at every count.
TEST(ExperimentParity, GoldenCellMatchesStandaloneSimulateAtEveryThreads) {
  const ExperimentSpec spec = ExperimentSpec::parse_file(
      std::string(CL_TEST_DATA_DIR) + "/golden_spec.json");
  EXPECT_EQ(spec.name(), "golden_spec");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 1u);
  const CellConfig& config = cells[0].config;

  // The standalone path: what `cl simulate --intensity uk_2018
  // --overload --days 1` executes (cli_common.h load_or_generate +
  // cmd_simulate.cpp).
  const Metro& metro = MetroRegistry::instance().get(config.metro);
  TraceConfig trace_config = TraceConfig::london_month_scaled(config.days);
  trace_config.metro = config.metro;
  trace_config.seed = config.seed;
  trace_config.threads = 1;
  const TraceView trace =
      TraceView::from_trace(TraceGenerator(trace_config, metro).generate());
  SimConfig sim_config;
  sim_config.threads = 1;
  const Analyzer analyzer(metro, sim_config);
  SimConfig run_config = analyzer.sim_config();
  run_config.collect_swarms = true;
  run_config.collect_hourly = true;  // --intensity present
  run_config.collect_per_user = false;
  run_config.overload = true;
  const SimResult expected =
      HybridSimulator(metro, run_config).run(trace, nullptr);

  std::string reference_render;
  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const CellOutcome outcome = run_cell(config, threads);
    EXPECT_EQ(outcome.sim.total.server.value(),
              expected.total.server.value());
    EXPECT_EQ(outcome.sim.total.cross_isp.value(),
              expected.total.cross_isp.value());
    for (std::size_t level = 0; level < expected.total.peer.size();
         ++level) {
      EXPECT_EQ(outcome.sim.total.peer[level].value(),
                expected.total.peer[level].value());
    }
    EXPECT_EQ(outcome.sim.offload(), expected.offload());
    EXPECT_EQ(outcome.sim.overload_spill.value(),
              expected.overload_spill.value());
    EXPECT_EQ(outcome.sim.hourly.size(), expected.hourly.size());
    EXPECT_EQ(outcome.sim.swarms.size(), expected.swarms.size());
    EXPECT_EQ(outcome.sessions, static_cast<double>(trace.size()));
    const std::string render = outcome.metrics.render();
    if (reference_render.empty()) {
      reference_render = render;
    } else {
      EXPECT_EQ(render, reference_render);  // byte-identical JSON payload
    }
  }

  // Cross-check two rendered metrics against the standalone numbers.
  const CellOutcome outcome = run_cell(config, 1);
  EXPECT_EQ(metric(outcome.metrics, "offload"), expected.offload());
  EXPECT_EQ(metric(outcome.metrics, "overload_spill_gb"),
            expected.overload_spill.value() / 8e9);
}

/// experiments/ablation_adoption.json reproduces the adoption fixed
/// point computed directly from AdoptionModel, bit-identically.
TEST(ExperimentParity, AdoptionSpecMatchesBenchComputation) {
  const ExperimentSpec spec = ExperimentSpec::parse_file(
      std::string(CL_EXPERIMENTS_DIR) + "/ablation_adoption.json");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 3u);
  const Metro& metro = MetroRegistry::instance().get(kDefaultMetroName);
  for (const ExperimentCell& cell : cells) {
    SCOPED_TRACE(cell.slug);
    const CellOutcome outcome = run_cell(cell.config, 1);
    for (const auto& params : standard_params()) {
      const AdoptionModel model(SavingsModel(params, metro.isp(0)));
      AdoptionConfig adoption;
      adoption.swarm_capacity = cell.config.adoption;
      adoption.uniform_thresholds(2000, -0.5, 0.5);
      const AdoptionResult expected = model.solve(adoption);
      EXPECT_EQ(metric(outcome.metrics, "participation_" + params.name),
                expected.participation);
      EXPECT_EQ(metric(outcome.metrics, "adoption_savings_" + params.name),
                expected.savings);
      EXPECT_EQ(metric(outcome.metrics, "adoption_cct_" + params.name),
                expected.cct);
    }
  }
}

/// One cell of experiments/ablation_edge_cache.json (capacity 50, P2P
/// on) reproduces a direct EdgeCacheSimulator run over the 10-day trace,
/// bit-identically.
TEST(ExperimentParity, EdgeCacheSpecMatchesBenchComputation) {
  const ExperimentSpec spec = ExperimentSpec::parse_file(
      std::string(CL_EXPERIMENTS_DIR) + "/ablation_edge_cache.json");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 8u);
  const ExperimentCell* cell = nullptr;
  for (const ExperimentCell& candidate : cells) {
    if (candidate.slug == "edge_cache-50_edge_cache_p2p-on") {
      cell = &candidate;
    }
  }
  ASSERT_NE(cell, nullptr);

  // The direct composition: generate, then one cache simulation.
  const Metro& metro = MetroRegistry::instance().get(kDefaultMetroName);
  TraceConfig trace_config = TraceConfig::london_month_scaled(10);
  trace_config.threads = 1;
  const TraceView trace =
      TraceView::from_trace(TraceGenerator(trace_config, metro).generate());
  SimConfig sim_config;
  sim_config.threads = 1;
  sim_config.collect_hourly = false;
  sim_config.collect_per_user = false;
  sim_config.collect_swarms = false;
  EdgeCacheConfig cache_config;
  cache_config.capacity_per_exp = 50;
  cache_config.misses_use_p2p = true;
  const EdgeCacheOutcome expected =
      EdgeCacheSimulator(metro, sim_config, cache_config).run(trace);

  const CellOutcome outcome = run_cell(cell->config, 1);
  EXPECT_EQ(metric(outcome.metrics, "cache_hit_rate"),
            expected.hit_rate());
  for (const auto& params : standard_params()) {
    EXPECT_EQ(metric(outcome.metrics, "cache_savings_" + params.name),
              EdgeCacheSimulator::savings(expected, params));
  }
}

// --- shared-plan contracts ----------------------------------------------

/// A scratch output directory for one run_experiment call.
std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("cl_experiment_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// The manifest's `metrics` entry `key`.
double manifest_metric(const ExperimentRunResult& run,
                       const std::string& key) {
  const JsonValue manifest = JsonValue::parse_file(run.manifest_path);
  const JsonValue* metrics = manifest.find("metrics");
  EXPECT_NE(metrics, nullptr);
  const JsonValue* value = metrics == nullptr ? nullptr : metrics->find(key);
  EXPECT_NE(value, nullptr) << "manifest lacks metrics." << key;
  return value == nullptr ? -1 : value->as_number();
}

/// The matrix_3d benchmark's shape — intensity × schedule minus
/// none × all, 7 cells — over a 1-day trace: one trace, one plain run
/// and one preloaded re-run per non-flat intensity, at every --threads.
/// Per-cell wall times are shares of task time, so they are positive and
/// sum to at most threads × the run's wall time.
TEST(ExperimentPlan, Matrix3dCountersDoNotDependOnThreads) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"days": 1},
          "axes": {"intensity": ["none", "uk_2018", "us_caiso",
                                 "nordic_hydro"],
                   "schedule": ["off", "all"]},
          "exclude": [{"intensity": "none", "schedule": "all"}]})",
      "matrix_1d");
  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExperimentRunConfig config;
    config.out_dir = scratch_dir("counters_" + std::to_string(threads));
    config.threads = threads;
    const ExperimentRunResult run = run_experiment(spec, config);
    ASSERT_EQ(run.cells.size(), 7u);
    EXPECT_EQ(manifest_metric(run, "traces_generated"), 1);
    EXPECT_EQ(manifest_metric(run, "simulations"), 4);
    double cell_seconds = 0;
    for (const CellRunRecord& record : run.cells) {
      EXPECT_GT(record.wall_seconds, 0);
      cell_seconds += record.wall_seconds;
    }
    EXPECT_LE(cell_seconds, resolve_threads(threads) * run.wall_seconds);
    std::filesystem::remove_all(config.out_dir);
  }
}

/// The edge-cache ablation's 8 cells all price one shared 10-day trace.
TEST(ExperimentPlan, EdgeCacheSpecGeneratesOneTrace) {
  const ExperimentSpec spec = ExperimentSpec::parse_file(
      std::string(CL_EXPERIMENTS_DIR) + "/ablation_edge_cache.json");
  ExperimentRunConfig config;
  config.out_dir = scratch_dir("edge_cache_counters");
  const ExperimentRunResult run = run_experiment(spec, config);
  EXPECT_EQ(run.cells.size(), 8u);
  EXPECT_EQ(manifest_metric(run, "traces_generated"), 1);
  EXPECT_EQ(manifest_metric(run, "simulations"), 0);
  std::filesystem::remove_all(config.out_dir);
}

/// A cell whose result file cannot be written fails the whole run with
/// the writer's IoError — the plan stops dispatching, lets running tasks
/// return and rethrows, at any worker count.
TEST(ExperimentPlan, FailedCellWriteStopsThePlanAndRethrows) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"simulate": "off"}, "axes": {"adoption": [50, 5, 0.5]}})",
      "unwritable");
  for (const unsigned threads : {1u, 2u, 0u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExperimentRunConfig config;
    config.out_dir = scratch_dir("unwritable_" + std::to_string(threads));
    config.threads = threads;
    // A directory where the middle cell's file should go.
    std::filesystem::create_directories(
        std::filesystem::path(config.out_dir) /
        "BENCH_unwritable_adoption-5.json");
    EXPECT_THROW((void)run_experiment(spec, config), IoError);
    std::filesystem::remove_all(config.out_dir);
  }
}

/// Counts the doubles of `a` and `b` whose bits differ.
std::size_t differing_bits(const TrafficBreakdown& a,
                           const TrafficBreakdown& b) {
  const auto differ = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) != std::bit_cast<std::uint64_t>(y)
               ? std::size_t{1}
               : std::size_t{0};
  };
  std::size_t count = differ(a.server.value(), b.server.value()) +
                      differ(a.cross_isp.value(), b.cross_isp.value());
  for (std::size_t level = 0; level < a.peer.size(); ++level) {
    count += differ(a.peer[level].value(), b.peer[level].value());
  }
  return count;
}

/// Every SimResult field bit-identical, except config.threads — the
/// worker-count knob, which shapes no result.
void expect_same_sim(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.config.window.value(), want.config.window.value());
  EXPECT_EQ(got.config.q_over_beta, want.config.q_over_beta);
  EXPECT_EQ(got.config.isp_friendly, want.config.isp_friendly);
  EXPECT_EQ(got.config.split_by_bitrate, want.config.split_by_bitrate);
  EXPECT_EQ(got.config.matcher, want.config.matcher);
  EXPECT_EQ(got.config.overload, want.config.overload);
  EXPECT_EQ(got.config.collect_swarms, want.config.collect_swarms);
  EXPECT_EQ(got.config.collect_per_user, want.config.collect_per_user);
  EXPECT_EQ(got.config.collect_hourly, want.config.collect_hourly);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.span.value()),
            std::bit_cast<std::uint64_t>(want.span.value()));
  EXPECT_EQ(differing_bits(got.total, want.total), 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.overload_spill.value()),
            std::bit_cast<std::uint64_t>(want.overload_spill.value()));
  EXPECT_TRUE(got.users.empty());
  EXPECT_TRUE(want.users.empty());

  ASSERT_EQ(got.swarms.size(), want.swarms.size());
  std::size_t swarm_diffs = 0;
  for (std::size_t i = 0; i < got.swarms.size(); ++i) {
    const SwarmResult& a = got.swarms[i];
    const SwarmResult& b = want.swarms[i];
    swarm_diffs += (a.key == b.key ? 0 : 1) +
                   (a.sessions == b.sessions ? 0 : 1) +
                   (std::bit_cast<std::uint64_t>(a.capacity) ==
                            std::bit_cast<std::uint64_t>(b.capacity)
                        ? 0
                        : 1) +
                   differing_bits(a.traffic, b.traffic);
  }
  EXPECT_EQ(swarm_diffs, 0u);

  ASSERT_EQ(got.hourly.size(), want.hourly.size());
  std::size_t hourly_diffs = 0;
  for (std::size_t h = 0; h < got.hourly.size(); ++h) {
    ASSERT_EQ(got.hourly[h].size(), want.hourly[h].size());
    for (std::size_t isp = 0; isp < got.hourly[h].size(); ++isp) {
      hourly_diffs += differing_bits(got.hourly[h][isp], want.hourly[h][isp]);
    }
  }
  EXPECT_EQ(hourly_diffs, 0u);
  ASSERT_EQ(got.hourly_spill.size(), want.hourly_spill.size());
  for (std::size_t h = 0; h < got.hourly_spill.size(); ++h) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hourly_spill[h].value()),
              std::bit_cast<std::uint64_t>(want.hourly_spill[h].value()));
  }
}

/// Twelve 1-day cells that share traces and simulations in every way the
/// plan keys them: pairs differing only in qb, only in overload and only
/// in intensity (flat — an inert schedule, so no re-run — a preset and a
/// CSV curve), over schedule off / preload / route / all. Every cell of
/// one run_experiment must render byte-identical metrics and carry a
/// bit-identical SimResult to a standalone run_cell of its config, at
/// every --threads. A memo key that dropped qb, overload or the
/// intensity would hand some cell another cell's simulation.
TEST(ExperimentPlan, SharedCellsMatchStandaloneRunCell) {
  const std::string csv =
      (std::filesystem::temp_directory_path() / "cl_plan_midday.csv")
          .string();
  {
    // A midday trough, unlike uk_2018's overnight one.
    std::ofstream out(csv);
    out << "hour,gco2_per_kwh\n";
    for (int hour = 0; hour < 24; ++hour) {
      out << hour << "," << 100 + 10 * std::abs(hour - 12) << "\n";
    }
  }
  // qb × overload × intensity × schedule, cut down to: every
  // intensity/schedule pairing at (qb 1, overload off), and none/off plus
  // uk_2018/all at (qb 0.5, off) and at (qb 1, on).
  std::string text = R"({"base": {"days": 1},
    "axes": {"qb": [1, 0.5], "overload": ["off", "on"],
             "intensity": ["none", "flat", "uk_2018", "CSV"],
             "schedule": ["off", "preload", "route", "all"]},
    "exclude": [
      {"qb": 0.5, "overload": "on"},
      {"qb": 0.5, "intensity": "flat"}, {"qb": 0.5, "intensity": "CSV"},
      {"overload": "on", "intensity": "flat"},
      {"overload": "on", "intensity": "CSV"},
      {"qb": 0.5, "intensity": "uk_2018", "schedule": "off"},
      {"qb": 0.5, "intensity": "uk_2018", "schedule": "preload"},
      {"qb": 0.5, "intensity": "uk_2018", "schedule": "route"},
      {"overload": "on", "intensity": "uk_2018", "schedule": "off"},
      {"overload": "on", "intensity": "uk_2018", "schedule": "preload"},
      {"overload": "on", "intensity": "uk_2018", "schedule": "route"},
      {"intensity": "none", "schedule": "preload"},
      {"intensity": "none", "schedule": "route"},
      {"intensity": "none", "schedule": "all"},
      {"intensity": "flat", "schedule": "preload"},
      {"intensity": "flat", "schedule": "route"},
      {"intensity": "CSV", "schedule": "off"},
      {"intensity": "CSV", "schedule": "preload"},
      {"intensity": "CSV", "schedule": "route"}]})";
  for (std::size_t at = text.find("CSV"); at != std::string::npos;
       at = text.find("CSV", at + csv.size())) {
    text.replace(at, 3, csv);
  }
  const ExperimentSpec spec = ExperimentSpec::parse(text, "sharing");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 12u);

  std::vector<CellOutcome> standalone;
  for (const ExperimentCell& cell : cells) {
    standalone.push_back(run_cell(cell.config, 1));
  }
  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExperimentRunConfig config;
    config.out_dir = scratch_dir("sharing_" + std::to_string(threads));
    config.threads = threads;
    const ExperimentRunResult run = run_experiment(spec, config);
    ASSERT_EQ(run.cells.size(), cells.size());
    // qb, overload and intensity never touch the trace.
    EXPECT_EQ(manifest_metric(run, "traces_generated"), 1);
    // Plain runs: (1, off), (0.5, off), (1, on). Preloaded re-runs: one
    // per non-flat curve under (1, off), plus uk_2018 under the other two.
    EXPECT_EQ(manifest_metric(run, "simulations"), 7);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      SCOPED_TRACE(cells[i].slug);
      EXPECT_EQ(run.cells[i].outcome.metrics.render(),
                standalone[i].metrics.render());
      EXPECT_EQ(run.cells[i].outcome.sessions, standalone[i].sessions);
      expect_same_sim(run.cells[i].outcome.sim, standalone[i].sim);
    }
    std::filesystem::remove_all(config.out_dir);
  }
  std::filesystem::remove(csv);
}

}  // namespace
