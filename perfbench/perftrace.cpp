// perftrace.cpp — cl_perftrace, the benchmark's in-process tracer.
//
// Calls the library's public functions in the order the `cl` commands
// call them, timing each call as a span (wall time and process CPU time),
// and renders the same report to stdout, byte for byte. run.py drives it:
//
//   cl_perftrace fingerprint
//       JSON: SIMD backend, CL_SIMD, compiler, build type, NUMA nodes.
//   cl_perftrace generate --workload NAME --seed N --dir DIR
//       Writes the workload's inputs (a .cltrace or an experiment spec)
//       into DIR and prints a JSON summary of what it wrote.
//   cl_perftrace run [--spans FILE] -- <cl arguments>
//       Runs `cl <arguments>` (simulate, live or experiment) in process;
//       with --spans, traces every layer call and writes the spans there.
//   cl_perftrace cells --spans FILE --threads N -- <spec.json>
//       Replays each experiment cell's library calls one by one (the
//       calls experiment/cell_runner.cpp makes) with spans, and prints
//       one JSON line of cell metrics per cell.
//
// Span names are "<module>.<call>": trace.open, trace.read_rows,
// trace.transpose, trace.generate, sim.run, core.aggregate,
// core.carbon_report, core.render, carbon.preload, carbon.plan_routes,
// carbon.assess, experiment.parse, experiment.run, experiment.cell.
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cli/cli_common.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "experiment/experiment_runner.h"
#include "experiment/experiment_spec.h"
#include "ext/live.h"
#include "sim/hybrid_sim.h"
#include "util/json_writer.h"
#include "util/numa.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/table.h"

namespace {

using namespace cl;
using namespace cl::cli;
using Clock = std::chrono::steady_clock;

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------------ spans

struct Span {
  std::string name;
  int parent = -1;
  double wall_start = 0;
  double wall_end = 0;
  double cpu_start = 0;
  double cpu_end = 0;
  JsonObject attrs;
};

/// In-memory span recorder; written out once, after the command returns.
/// A disabled tracer records nothing and reads no clocks.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    template <typename T>
    void set(const std::string& key, const T& value) {
      if (id_ < 0) return;
      tracer_.spans_[static_cast<std::size_t>(id_)].attrs.set(key, value);
    }

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }

  void write(const std::string& path) const {
    std::vector<JsonObject> spans;
    for (const Span& span : spans_) {
      JsonObject entry;
      entry.set("name", span.name);
      entry.set("parent", static_cast<std::int64_t>(span.parent));
      entry.set("wall_start", span.wall_start);
      entry.set("wall_s", span.wall_end - span.wall_start);
      entry.set("cpu_s", span.cpu_end - span.cpu_start);
      entry.set("attrs", span.attrs);
      spans.push_back(std::move(entry));
    }
    JsonObject root;
    root.set("spans", spans);
    std::ofstream out(path);
    out << root.render() << "\n";
    if (!out.good()) throw IoError("cannot write spans file '" + path + "'");
  }

 private:
  int open(const char* name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.wall_start = seconds_since_origin();
    span.cpu_start = process_cpu_seconds();
    spans_.push_back(std::move(span));
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.cpu_end = process_cpu_seconds();
    span.wall_end = seconds_since_origin();
    stack_.pop_back();
  }

  [[nodiscard]] double seconds_since_origin() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ------------------------------------------------------- traced layer calls

/// TraceView for --trace PATH, as load_view_or_generate builds it: a
/// `.cltrace` maps zero-copy, CSV loads rows and transposes once.
TraceView open_view(const Args& args, Tracer& tracer) {
  const auto path = args.get("trace");
  if (!path) throw ParseError("cl_perftrace needs --trace PATH");
  const unsigned threads = threads_from(args);
  TraceFormat format = trace_format_from(args);
  if (format == TraceFormat::kAuto) {
    format = sniff_trace_binary(*path) ? TraceFormat::kBinary
                                       : TraceFormat::kCsv;
  }
  if (format == TraceFormat::kBinary) {
    Tracer::Scope span(tracer, "trace.open");
    return TraceView::open_binary(*path, threads);
  }
  Trace rows;
  {
    Tracer::Scope span(tracer, "trace.read_rows");
    rows = read_trace_any(*path, TraceFormat::kCsv, threads);
  }
  Tracer::Scope span(tracer, "trace.transpose");
  return TraceView::from_trace(rows, threads);
}

TraceView transpose(const Trace& rows, unsigned threads, Tracer& tracer) {
  Tracer::Scope span(tracer, "trace.transpose");
  return TraceView::from_trace(rows, threads);
}

/// HybridSimulator::run with the public phase split when tracing.
SimResult simulate(const Metro& metro, const SimConfig& config,
                   const TraceView& view, Tracer& tracer) {
  Tracer::Scope span(tracer, "sim.run");
  SimPhaseTiming timing;
  SimResult result = HybridSimulator(metro, config)
                         .run(view, tracer.enabled() ? &timing : nullptr);
  span.set("threads",
           static_cast<std::int64_t>(resolve_threads(config.threads)));
  span.set("sessions", static_cast<std::int64_t>(view.size()));
  span.set("swarms", static_cast<std::int64_t>(result.swarms.size()));
  span.set("group_s", timing.group_seconds);
  span.set("sweep_s", timing.sweep_seconds);
  span.set("merge_s", timing.merge_seconds);
  span.set("gather_cpu_s",
           timing.sweep_gather1_seconds + timing.sweep_gather2_seconds);
  span.set("events_cpu_s", timing.sweep_events_seconds);
  span.set("allocate_cpu_s", timing.sweep_allocate_seconds);
  span.set("overload_spill_gb", result.overload_spill.value() / 8e9);
  return result;
}

std::vector<AggregateOutcome> aggregate(const Analyzer& analyzer,
                                        const SimResult& result,
                                        Tracer& tracer) {
  Tracer::Scope span(tracer, "core.aggregate");
  return analyzer.aggregate(result);
}

std::vector<CarbonOutcome> carbon_report(const Analyzer& analyzer,
                                         const SimResult& result,
                                         const IntensityCurve& intensity,
                                         Tracer& tracer) {
  Tracer::Scope span(tracer, "core.carbon_report");
  return analyzer.carbon_report(result, intensity);
}

void print_carbon_header(const IntensityCurve& intensity) {
  std::cout << "\ncarbon under intensity " << intensity.name() << " (mean "
            << intensity.mean() << " gCO2/kWh, min " << intensity.min()
            << ", max " << intensity.max() << "):\n";
}

// ------------------------------------------------------- command mirrors

/// `cl simulate`, call for call (src/cli/cmd_simulate.cpp, no --timing).
int run_simulate(const Args& args, Tracer& tracer) {
  validate_intensity_flag(args);
  const ScheduleMode schedule = schedule_from(args);

  Trace rows;
  TraceView view;
  if (schedule_preloads(schedule)) {
    const auto path = args.get("trace");
    if (!path) throw ParseError("cl_perftrace needs --trace PATH");
    {
      Tracer::Scope span(tracer, "trace.read_rows");
      rows = read_trace_any(*path, trace_format_from(args), threads_from(args));
    }
    view = transpose(rows, threads_from(args), tracer);
  } else {
    view = open_view(args, tracer);
  }

  const Metro& metro = resolve_metro(args, view.metro_name());
  const IntensityCurve* intensity = intensity_from(args, metro.name());
  const Analyzer analyzer(metro, sim_config_from(args));
  {
    Tracer::Scope span(tracer, "core.render");
    std::cout << "\nsessions: " << view.size() << ", span "
              << view.span().value() / 86400.0 << " days, metro "
              << metro.name() << "\n\n";
  }

  SimConfig config = analyzer.sim_config();
  config.collect_swarms = true;
  config.collect_hourly = intensity != nullptr;
  config.collect_per_user = false;
  config.overload = args.has("overload");
  const SimResult result = simulate(metro, config, view, tracer);

  const auto aggregates = aggregate(analyzer, result, tracer);
  {
    Tracer::Scope span(tracer, "core.render");
    print_aggregate(std::cout, aggregates);
    if (config.overload) {
      std::cout << "\noverload: " << result.overload_spill.value() / 8e9
                << " GB of peer demand spilled back to the CDN\n";
    }
  }
  if (intensity) {
    const auto carbon = carbon_report(analyzer, result, *intensity, tracer);
    Tracer::Scope span(tracer, "core.render");
    print_carbon_header(*intensity);
    print_carbon_report(std::cout, carbon);
  }

  if (schedule != ScheduleMode::kOff) {
    const CarbonScheduler scheduler(*intensity, schedule_config_from(args));
    SimResult preloaded_result;
    const SimResult* scheduled = &result;
    if (schedule_preloads(schedule) && !scheduler.inert()) {
      Trace shifted;
      {
        Tracer::Scope span(tracer, "carbon.preload");
        shifted = scheduler.schedule_preload(
            rows, seed_from(args, TraceConfig{}.seed));
      }
      preloaded_result = simulate(
          metro, config, transpose(shifted, config.threads, tracer), tracer);
      scheduled = &preloaded_result;
    }
    const std::size_t home = metro_registry_index(metro.name());
    const std::size_t hours = scheduled->hourly.size();
    RoutingPlan plan;
    {
      Tracer::Scope span(tracer, "carbon.plan_routes");
      plan = schedule_routes(schedule)
                 ? scheduler.plan_routes(
                       serving_curves(metro.name(), *intensity), home, hours)
                 : scheduler.home_plan(home, hours);
    }
    std::vector<ScheduleOutcome> outcomes;
    {
      Tracer::Scope span(tracer, "carbon.assess");
      for (const auto& params : analyzer.models()) {
        const EnergyAccountant accountant{CostFunctions(params)};
        outcomes.push_back(scheduler.assess(result.hourly, scheduled->hourly,
                                            accountant, plan));
      }
    }
    Tracer::Scope span(tracer, "core.render");
    std::cout << "\n";
    print_schedule_report(std::cout, scheduler, plan,
                          schedule_preloads(schedule),
                          schedule_routes(schedule), result.offload(),
                          scheduled->offload(), outcomes);
  }
  return 0;
}

/// `cl live --trace PATH`, call for call (src/cli/cmd_live.cpp's replay
/// branch; the preset branch is input generation, not a workload).
int run_live(const Args& args, Tracer& tracer) {
  validate_intensity_flag(args);
  const TraceView view = open_view(args, tracer);

  const Metro& metro = resolve_metro(args, view.metro_name());
  const IntensityCurve* intensity = intensity_from(args, metro.name());
  const Analyzer analyzer(metro, sim_config_from(args));
  {
    Tracer::Scope span(tracer, "core.render");
    std::cout << "\nflash crowd (replayed trace): " << view.size()
              << " session segments, span " << view.span().value() / 86400.0
              << " days, metro " << metro.name() << "\n\n";
  }

  SimConfig config = analyzer.sim_config();
  config.collect_swarms = true;
  config.collect_hourly = true;
  config.collect_per_user = false;
  config.overload = true;
  const SimResult result = simulate(metro, config, view, tracer);

  const auto aggregates = aggregate(analyzer, result, tracer);
  {
    Tracer::Scope span(tracer, "core.render");
    print_aggregate(std::cout, aggregates);

    const double spill_gb = result.overload_spill.value() / 8e9;
    const double peer_gb = result.total.peer_total().value() / 8e9;
    std::cout << "\noverload: " << fmt(spill_gb, 3)
              << " GB of peer demand spilled back to the CDN (peers carried "
              << fmt(peer_gb, 3) << " GB)\n";

    std::vector<std::string> header{"hour", "GB", "offload", "spill GB"};
    for (const auto& params : analyzer.models()) header.push_back(params.name);
    TextTable table(header);
    for (std::size_t h = 0; h < result.hourly.size(); ++h) {
      TrafficBreakdown hour_traffic;
      for (const auto& isp_traffic : result.hourly[h]) {
        hour_traffic += isp_traffic;
      }
      if (hour_traffic.total().value() <= 0) continue;
      const double hour_spill = h < result.hourly_spill.size()
                                    ? result.hourly_spill[h].value() / 8e9
                                    : 0.0;
      std::vector<std::string> row{
          std::to_string(h), fmt(hour_traffic.total().value() / 8e9, 3),
          fmt_pct(hour_traffic.offload_fraction()), fmt(hour_spill, 3)};
      for (const auto& params : analyzer.models()) {
        const EnergyAccountant accountant{CostFunctions(params)};
        row.push_back(fmt_pct(accountant.savings(hour_traffic)));
      }
      table.add_row(std::move(row));
    }
    std::cout << "\nhourly trajectory (savings per energy model):\n";
    table.print(std::cout);
  }

  if (intensity) {
    const auto carbon = carbon_report(analyzer, result, *intensity, tracer);
    Tracer::Scope span(tracer, "core.render");
    print_carbon_header(*intensity);
    print_carbon_report(std::cout, carbon);
  }
  return 0;
}

/// `cl experiment SPEC`, call for call (src/cli/cmd_experiment.cpp).
int run_experiment_command(const Args& args, Tracer& tracer) {
  const auto spec_path = args.get("spec");
  if (!spec_path) throw ParseError("experiment: missing spec path");
  ExperimentRunConfig run_config;
  run_config.out_dir = args.get_or("out-dir", ".");
  run_config.threads = threads_from(args);
  for (const auto& flag : args.unused()) {
    throw ParseError("unknown flag --" + flag);
  }

  std::optional<ExperimentSpec> spec;
  {
    Tracer::Scope span(tracer, "experiment.parse");
    spec = ExperimentSpec::parse_file(*spec_path);
  }
  {
    Tracer::Scope span(tracer, "core.render");
    std::cout << "experiment '" << spec->name() << "': running "
              << spec->cells().size() << " cells into " << run_config.out_dir
              << "\n";
  }
  ExperimentRunResult run;
  {
    Tracer::Scope span(tracer, "experiment.run");
    run = run_experiment(*spec, run_config, &std::cout);
    std::vector<double> cell_seconds;
    for (const CellRunRecord& record : run.cells) {
      cell_seconds.push_back(record.wall_seconds);
    }
    span.set("threads",
             static_cast<std::int64_t>(resolve_threads(run_config.threads)));
    span.set("cell_s", cell_seconds);
  }
  Tracer::Scope span(tracer, "core.render");
  std::cout << "wrote " << run.cells.size() << " cell files and manifest "
            << run.manifest_path << " (wall " << json_number(run.wall_seconds)
            << " s)\n";
  return 0;
}

/// One experiment cell's library calls (experiment/cell_runner.cpp's
/// simulate path), each as its own span; returns the cell's metrics
/// object, which must equal the one run_experiment wrote for the cell.
JsonObject replay_cell(const CellConfig& config, unsigned threads,
                       Tracer& tracer) {
  if (!config.simulate || config.preload || config.adoption > 0 ||
      config.edge_cache > 0) {
    throw InvalidArgument(
        "cell replay covers simulate cells without preload, adoption or "
        "edge caches");
  }
  JsonObject metrics;
  const Metro& metro = MetroRegistry::instance().get(config.metro);
  std::optional<IntensityCurve> csv_curve;
  const IntensityCurve* intensity = nullptr;
  if (config.intensity == "metro") {
    intensity = &IntensityRegistry::instance().default_for_metro(config.metro);
  } else if (config.intensity != "none") {
    if (const IntensityCurve* preset =
            IntensityRegistry::instance().find(config.intensity)) {
      intensity = preset;
    } else {
      csv_curve = IntensityCurve::from_csv(config.intensity);
      intensity = &*csv_curve;
    }
  }

  TraceConfig trace_config = TraceConfig::london_month_scaled(config.days);
  trace_config.metro = config.metro;
  trace_config.seed = config.seed;
  trace_config.threads = threads;
  trace_config.users = static_cast<std::uint32_t>(
      std::llround(trace_config.users * config.scale));
  Trace rows;
  {
    Tracer::Scope span(tracer, "trace.generate");
    rows = TraceGenerator(trace_config, metro).generate();
    span.set("key", trace_config.metro + "|" + json_number(trace_config.days) +
                        "|" + std::to_string(trace_config.seed) + "|" +
                        std::to_string(trace_config.users));
  }
  metrics.set("sessions", static_cast<double>(rows.size()));

  SimConfig sim_config;
  sim_config.q_over_beta = config.qb;
  sim_config.threads = threads;
  const Analyzer analyzer(metro, sim_config);
  SimConfig run_config = analyzer.sim_config();
  run_config.collect_swarms = true;
  run_config.collect_hourly = intensity != nullptr;
  run_config.collect_per_user = false;
  run_config.overload = config.overload;
  const SimResult result =
      simulate(metro, run_config, transpose(rows, threads, tracer), tracer);

  metrics.set("offload", result.offload());
  for (const AggregateOutcome& outcome : aggregate(analyzer, result, tracer)) {
    metrics.set("savings_" + outcome.model, outcome.sim_savings);
    metrics.set("theory_savings_" + outcome.model, outcome.theory_savings);
  }
  if (run_config.overload) {
    metrics.set("overload_spill_gb", result.overload_spill.value() / 8e9);
  }
  if (intensity) {
    for (const CarbonOutcome& carbon :
         carbon_report(analyzer, result, *intensity, tracer)) {
      metrics.set("carbon_savings_" + carbon.model, carbon.carbon_savings);
      metrics.set("carbon_saved_g_" + carbon.model, carbon.saved_g);
    }
  }

  if (config.schedule != "off") {
    const bool preloads =
        config.schedule == "preload" || config.schedule == "all";
    const bool routes = config.schedule == "route" || config.schedule == "all";
    const CarbonScheduler scheduler(*intensity, ScheduleConfig{});
    SimResult preloaded_result;
    const SimResult* scheduled = &result;
    if (preloads && !scheduler.inert()) {
      Trace shifted;
      {
        Tracer::Scope span(tracer, "carbon.preload");
        shifted = scheduler.schedule_preload(rows, config.seed);
      }
      preloaded_result = simulate(metro, run_config,
                                  transpose(shifted, threads, tracer), tracer);
      scheduled = &preloaded_result;
    }
    const std::size_t home = metro_registry_index(metro.name());
    const std::size_t hours = scheduled->hourly.size();
    RoutingPlan plan;
    {
      Tracer::Scope span(tracer, "carbon.plan_routes");
      plan = routes ? scheduler.plan_routes(
                          serving_curves(metro.name(), *intensity), home, hours)
                    : scheduler.home_plan(home, hours);
    }
    metrics.set("schedule_hours_routed_away",
                static_cast<double>(plan.hours_routed_away()));
    metrics.set("schedule_mean_added_latency_ms", plan.mean_added_latency_ms());
    metrics.set("schedule_scheduled_offload", scheduled->offload());
    Tracer::Scope span(tracer, "carbon.assess");
    for (const auto& params : analyzer.models()) {
      const EnergyAccountant accountant{CostFunctions(params)};
      const ScheduleOutcome assessed =
          scheduler.assess(result.hourly, scheduled->hourly, accountant, plan);
      metrics.set("schedule_reduction_" + params.name, assessed.reduction);
      metrics.set("schedule_scheduled_g_" + params.name, assessed.scheduled_g);
    }
  }
  return metrics;
}

/// Replays every cell of a spec with the per-cell thread share that
/// run_experiment gives it, one cell after another.
int run_cells(const std::string& spec_path, unsigned threads, Tracer& tracer) {
  const ExperimentSpec spec = ExperimentSpec::parse_file(spec_path);
  const std::vector<ExperimentCell> cells = spec.cells();
  const unsigned total = resolve_threads(threads);
  const unsigned outer =
      static_cast<unsigned>(std::min<std::size_t>(total, cells.size()));
  const unsigned inner = std::max(1u, total / outer);
  for (const ExperimentCell& cell : cells) {
    JsonObject metrics;
    {
      Tracer::Scope span(tracer, "experiment.cell");
      metrics = replay_cell(cell.config, inner, tracer);
    }
    JsonObject line;
    line.set("slug", cell.slug);
    line.set("metrics", metrics);
    std::cout << line.render() << "\n";
  }
  return 0;
}

// ----------------------------------------------------------- input setup

/// Writes the inputs of one benchmark workload for `seed` into `dir`.
JsonObject generate_inputs(const std::string& workload, std::uint64_t seed,
                           const std::string& dir) {
  JsonObject summary;
  const Metro& metro = MetroRegistry::instance().get(kDefaultMetroName);
  if (workload == "replay_7d" || workload == "schedule_7d") {
    TraceConfig config = TraceConfig::london_month_scaled(7);
    config.seed = seed;
    config.threads = 4;
    const Trace trace = TraceGenerator(config, metro).generate();
    const std::string path = dir + "/london_7d.cltrace";
    write_trace_any(path, trace, TraceFormat::kBinary);
    summary.set("file", path);
    summary.set("sessions", static_cast<std::int64_t>(trace.size()));
  } else if (workload == "flash_crowd") {
    const FlashCrowdConfig config =
        flash_crowd_preset("spike", 100000, 7200.0, 1.0);
    const Trace trace = generate_flash_crowd(metro, config, seed);
    const std::string path = dir + "/spike_100k.cltrace";
    write_trace_any(path, trace, TraceFormat::kBinary);
    summary.set("file", path);
    summary.set("sessions", static_cast<std::int64_t>(trace.size()));
  } else if (workload == "matrix_3d") {
    const std::string path = dir + "/matrix_3d.json";
    {
      std::ofstream out(path);
      out << "{\n"
             "  \"name\": \"matrix_3d\",\n"
             "  \"description\": \"intensity x schedule over a 3-day trace\",\n"
             "  \"base\": { \"days\": 3, \"seed\": "
          << seed
          << " },\n"
             "  \"axes\": {\n"
             "    \"intensity\": [\"none\", \"uk_2018\", \"us_caiso\", "
             "\"nordic_hydro\"],\n"
             "    \"schedule\": [\"off\", \"all\"]\n"
             "  },\n"
             "  \"exclude\": [ { \"intensity\": \"none\", \"schedule\": "
             "\"all\" } ]\n"
             "}\n";
      if (!out.good()) throw IoError("cannot write spec '" + path + "'");
    }
    const ExperimentSpec spec = ExperimentSpec::parse_file(path);
    summary.set("file", path);
    summary.set("cells", static_cast<std::int64_t>(spec.cells().size()));
  } else {
    throw ParseError("unknown workload '" + workload + "'");
  }
  return summary;
}

JsonObject fingerprint() {
  JsonObject out;
  out.set("simd_backend", simd::kBackendName);
  const char* env = std::getenv("CL_SIMD");
  out.set("cl_simd", env != nullptr ? env : "");
#if defined(__clang__)
  out.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  out.set("compiler", std::string("gcc ") + __VERSION__);
#else
  out.set("compiler", "unknown");
#endif
  out.set("build_type", CL_PERFTRACE_BUILD_TYPE);
  out.set("numa_nodes", static_cast<std::int64_t>(numa_topology().nodes()));
  return out;
}

const std::set<std::string> kBooleanFlags{"cross-isp", "dry-run", "help",
                                          "mixed-bitrate", "overload",
                                          "quiet", "timing"};

int main_impl(const std::vector<std::string>& argv) {
  if (argv.empty()) {
    throw ParseError("usage: cl_perftrace fingerprint|generate|run|cells ...");
  }
  const std::string& mode = argv[0];
  // cl_perftrace's options come before "--"; cl's own arguments after it.
  std::vector<std::string> own;
  std::vector<std::string> rest;
  bool after = false;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    if (!after && argv[i] == "--") {
      after = true;
    } else {
      (after ? rest : own).push_back(argv[i]);
    }
  }
  own.insert(own.begin(), mode);
  const Args options(own, {});

  if (mode == "fingerprint") {
    std::cout << fingerprint().render() << "\n";
    return 0;
  }
  if (mode == "generate") {
    const auto workload = options.get("workload");
    const auto dir = options.get("dir");
    if (!workload || !dir) {
      throw ParseError("generate needs --workload and --dir");
    }
    const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
    std::cout << generate_inputs(*workload, seed, *dir).render() << "\n";
    return 0;
  }

  const auto spans_path = options.get("spans");
  Tracer tracer(spans_path.has_value());
  int code = 0;
  if (mode == "run") {
    if (rest.size() >= 2 && rest[0] == "experiment" &&
        rest[1].rfind("--", 0) != 0) {
      rest[1] = "--spec=" + rest[1];
    }
    const Args args(rest, kBooleanFlags);
    if (args.command() == "simulate") {
      code = run_simulate(args, tracer);
    } else if (args.command() == "live") {
      code = run_live(args, tracer);
    } else if (args.command() == "experiment") {
      code = run_experiment_command(args, tracer);
    } else {
      throw ParseError("run mirrors simulate, live and experiment only");
    }
  } else if (mode == "cells") {
    if (rest.size() != 1) throw ParseError("cells needs -- SPEC");
    code = run_cells(rest[0],
                     static_cast<unsigned>(options.get_int("threads", 1)),
                     tracer);
  } else {
    throw ParseError("unknown mode '" + mode + "'");
  }
  std::cout.flush();
  if (spans_path) tracer.write(*spans_path);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_impl(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const cl::ParseError& e) {
    std::cerr << "argument error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
