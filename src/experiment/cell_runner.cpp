#include "experiment/cell_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <compare>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>

#include "carbon/intensity_curve.h"
#include "carbon/schedule.h"
#include "core/analyzer.h"
#include "energy/cost_functions.h"
#include "energy/energy_params.h"
#include "ext/adoption.h"
#include "ext/edge_cache.h"
#include "ext/preload.h"
#include "sim/hybrid_sim.h"
#include "topology/metro_registry.h"
#include "trace/synthetic.h"
#include "trace/trace_view.h"
#include "util/parallel.h"

namespace cl {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

[[nodiscard]] bool schedule_preloads(const std::string& mode) {
  return mode == "preload" || mode == "all";
}

[[nodiscard]] bool schedule_routes(const std::string& mode) {
  return mode == "route" || mode == "all";
}

// --- the task graph -------------------------------------------------------

/// One unit of plan work; `run` receives the worker threads it was granted.
struct PlanTask {
  std::function<void(unsigned threads)> run;
  std::vector<std::size_t> after;  ///< tasks that must finish first
  std::vector<std::size_t> cells;  ///< cells sharing this task's wall time
  double seconds = 0;              ///< wall time, set once it finished
};

/// Runs `tasks` on a budget of `threads`: a free worker takes the oldest
/// runnable task together with ceil(free / runnable) of the free threads,
/// so the budget follows whatever is runnable. `finished(task)` runs on
/// the worker after the task (its `seconds` set) and before any task
/// listing it in `after` starts. The first exception stops dispatching
/// and is rethrown once running tasks have returned.
void run_tasks(std::vector<PlanTask>& tasks, unsigned threads,
               const std::function<void(std::size_t)>& finished) {
  std::vector<std::vector<std::size_t>> dependents(tasks.size());
  std::vector<std::size_t> waiting(tasks.size());
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    waiting[i] = tasks[i].after.size();
    for (const std::size_t before : tasks[i].after) {
      dependents[before].push_back(i);
    }
    if (waiting[i] == 0) ready.push_back(i);
  }

  std::mutex mutex;
  std::condition_variable changed;
  unsigned free = threads;
  std::size_t done = 0;
  bool failed = false;
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, tasks.size()));
  detail::run_workers(workers, [&](unsigned) {
    std::unique_lock lock(mutex);
    while (true) {
      changed.wait(lock, [&] {
        return failed || done == tasks.size() || (!ready.empty() && free > 0);
      });
      if (failed || done == tasks.size()) return;
      const std::size_t task = ready.front();
      ready.pop_front();
      const auto granted =
          static_cast<unsigned>((free + ready.size()) / (ready.size() + 1));
      free -= granted;
      lock.unlock();
      try {
        const auto start = Clock::now();
        tasks[task].run(granted);
        tasks[task].seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        finished(task);
      } catch (...) {
        lock.lock();
        failed = true;
        changed.notify_all();
        throw;  // run_workers rethrows it on the calling thread
      }
      lock.lock();
      free += granted;
      ++done;
      for (const std::size_t next : dependents[task]) {
        if (--waiting[next] == 0) ready.push_back(next);
      }
      changed.notify_all();
    }
  });
}

// --- the shared work ------------------------------------------------------

/// Everything a generated trace depends on.
struct TraceKey {
  std::string metro;
  double days = 0;
  double scale = 0;
  std::uint64_t seed = 0;
  bool preload = false;
  double preload_start_hour = 0;
  double preload_end_hour = 0;
  double preload_adoption = 0;
  auto operator<=>(const TraceKey&) const = default;
};

[[nodiscard]] TraceKey trace_key(const CellConfig& config) {
  return {config.metro,
          config.days,
          config.scale,
          config.seed,
          config.preload,
          config.preload_start_hour,
          config.preload_end_hour,
          config.preload_adoption};
}

/// Everything a simulation depends on: the trace, the simulator knobs and,
/// for a schedule's preloaded re-run, the curve whose trough the preload
/// moves into — by object, so a preset named directly and through
/// "metro" is one curve (its address; 0 for the plain run).
struct RunKey {
  std::size_t trace = 0;
  double qb = 0;
  bool overload = false;
  std::uintptr_t preload_curve = 0;
  auto operator<=>(const RunKey&) const = default;
};

/// One generated trace, transposed once: every simulation, preloaded
/// re-run and edge cache of the plan reads these columns.
struct SharedTrace {
  const CellConfig* config = nullptr;  ///< the first cell with this key
  TraceView view;
  double sessions = 0;
  std::atomic<std::size_t> readers{0};  ///< tasks still to read `view`
};

struct SharedRun {
  std::size_t trace = 0;
  const CellConfig* config = nullptr;  ///< the first cell with this key
  /// Set for a preloaded re-run: the trace goes through this curve's
  /// schedule_preload before the simulation.
  const IntensityCurve* preload_curve = nullptr;
  bool hourly = false;  ///< some consumer prices the hourly grid
  SimResult result;
  std::atomic<std::size_t> readers{0};  ///< cells still to price from it
};

/// Counts one reader of `slot` off; true for the last one.
template <typename Slot>
[[nodiscard]] bool last_reader(Slot& slot) {
  return --slot.readers == 0;
}

void release(SharedTrace& trace) {
  if (last_reader(trace)) trace.view = TraceView{};
}

void release(SharedRun& run) {
  if (last_reader(run)) run.result = SimResult{};
}

/// The run's result for one reader: the last reader takes it, the others
/// get a copy.
[[nodiscard]] SimResult take(SharedRun& run) {
  if (run.readers == 1) {  // no other reader is left to read it
    run.readers = 0;
    return std::move(run.result);
  }
  SimResult copy = run.result;
  release(run);
  return copy;
}

/// Which shared work one cell consumes.
struct CellPlan {
  const Metro* metro = nullptr;
  const IntensityCurve* intensity = nullptr;
  std::size_t trace = kNone;
  std::size_t run = kNone;
  std::size_t preloaded = kNone;
};

/// The simulator configuration of cmd_simulate.cpp, for `threads`.
[[nodiscard]] SimConfig simulate_config(const Metro& metro,
                                        const CellConfig& config,
                                        bool hourly, unsigned threads) {
  SimConfig sim_config;
  sim_config.q_over_beta = config.qb;
  sim_config.threads = threads;
  SimConfig run_config = Analyzer(metro, sim_config).sim_config();
  run_config.collect_swarms = true;
  run_config.collect_hourly = hourly;
  run_config.collect_per_user = false;
  run_config.overload = config.overload;
  return run_config;
}

class CellPlanner {
 public:
  explicit CellPlanner(const std::vector<CellConfig>& configs)
      : configs_(configs), plans_(configs.size()), outcomes_(configs.size()) {
    for (std::size_t i = 0; i < configs_.size(); ++i) plan(i);
  }
  // Tasks capture `this`.
  CellPlanner(const CellPlanner&) = delete;
  CellPlanner& operator=(const CellPlanner&) = delete;

  [[nodiscard]] CellPlanRun run(unsigned threads, const CellDone& on_done) {
    std::vector<PlanTask> tasks;
    const auto add_task = [&](std::function<void(unsigned)> run,
                              std::vector<std::size_t> after) {
      tasks.push_back({std::move(run), std::move(after), {}});
    };
    for (std::size_t t = 0; t < traces_.size(); ++t) {
      add_task([this, t](unsigned k) { generate(traces_[t], k); }, {});
    }
    const std::size_t first_run = tasks.size();
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      add_task([this, r](unsigned k) { simulate(runs_[r], k); },
               {runs_[r].trace});
    }
    const std::size_t first_price = tasks.size();
    // A cell shares the time of every task it consumes and owns its
    // pricing task; cell_tasks lists them, pricing last.
    std::vector<std::vector<std::size_t>> cell_tasks(configs_.size());
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const CellPlan& plan = plans_[i];
      for (const std::size_t upstream :
           {plan.trace, plan.run == kNone ? kNone : first_run + plan.run,
            plan.preloaded == kNone ? kNone : first_run + plan.preloaded}) {
        if (upstream == kNone) continue;
        tasks[upstream].cells.push_back(i);
        cell_tasks[i].push_back(upstream);
      }
      std::vector<std::size_t> after = cell_tasks[i];
      cell_tasks[i].push_back(tasks.size());
      add_task([this, i](unsigned k) { price_cell(i, k); }, std::move(after));
      tasks.back().cells = {i};
    }

    CellPlanRun result;
    result.traces_generated = traces_.size();
    result.simulations = runs_.size();
    run_tasks(tasks, resolve_threads(threads), [&](std::size_t task) {
      if (task < first_price) return;
      const std::size_t cell = task - first_price;
      double seconds = 0;
      for (const std::size_t t : cell_tasks[cell]) {
        seconds +=
            tasks[t].seconds / static_cast<double>(tasks[t].cells.size());
      }
      if (on_done) on_done(cell, outcomes_[cell], seconds);
    });
    result.outcomes = std::move(outcomes_);
    return result;
  }

 private:
  /// Resolves cell i's inputs and keys it into the shared stages.
  void plan(std::size_t i) {
    const CellConfig& config = configs_[i];
    CellPlan& plan = plans_[i];
    plan.metro = &MetroRegistry::instance().get(config.metro);
    plan.intensity = intensity_for(config);
    if (!config.simulate && config.edge_cache == 0) return;

    const auto [trace, added] =
        trace_index_.try_emplace(trace_key(config), traces_.size());
    if (added) traces_.emplace_back().config = &config;
    plan.trace = trace->second;
    if (config.edge_cache > 0) ++traces_[plan.trace].readers;
    if (!config.simulate) return;

    plan.run = add_run({plan.trace, config.qb, config.overload}, config,
                       nullptr);
    runs_[plan.run].hourly |= plan.intensity != nullptr;
    if (schedule_preloads(config.schedule) &&
        !CarbonScheduler(*plan.intensity, ScheduleConfig{}).inert()) {
      plan.preloaded =
          add_run({plan.trace, config.qb, config.overload,
                   reinterpret_cast<std::uintptr_t>(plan.intensity)},
                  config, plan.intensity);
      runs_[plan.preloaded].hourly = true;
    }
  }

  /// The run for `key`, added on first use; counts the cell as a reader.
  std::size_t add_run(const RunKey& key, const CellConfig& config,
                      const IntensityCurve* preload_curve) {
    const auto [run, added] = run_index_.try_emplace(key, runs_.size());
    if (added) {
      SharedRun& shared = runs_.emplace_back();
      shared.trace = key.trace;
      shared.config = &config;
      shared.preload_curve = preload_curve;
      ++traces_[key.trace].readers;
    }
    ++runs_[run->second].readers;
    return run->second;
  }

  /// The intensity curve, resolved exactly as the CLI's --intensity flag
  /// (cli_common.h intensity_from) — except a CSV path loads once into
  /// the plan, shared by every cell naming it.
  const IntensityCurve* intensity_for(const CellConfig& config) {
    if (config.intensity == "none") return nullptr;
    if (config.intensity == "metro") {
      return &IntensityRegistry::instance().default_for_metro(config.metro);
    }
    if (const IntensityCurve* preset =
            IntensityRegistry::instance().find(config.intensity)) {
      return preset;
    }
    auto csv = csv_curves_.find(config.intensity);
    if (csv == csv_curves_.end()) {
      csv = csv_curves_
                .emplace(config.intensity,
                         IntensityCurve::from_csv(config.intensity))
                .first;
    }
    return &csv->second;
  }

  /// Stage 1: the same scaled synthetic month a no---trace `cl simulate`
  /// generates (cli_common.h load_or_generate), with the population
  /// multiplied by the cell's scale knob.
  static void generate(SharedTrace& trace, unsigned threads) {
    const CellConfig& config = *trace.config;
    TraceConfig trace_config = TraceConfig::london_month_scaled(config.days);
    trace_config.metro = config.metro;
    trace_config.seed = config.seed;
    trace_config.threads = threads;
    trace_config.users = static_cast<std::uint32_t>(
        std::llround(trace_config.users * config.scale));
    trace.view = TraceView::from_trace(
        TraceGenerator(trace_config,
                       MetroRegistry::instance().get(config.metro))
            .generate(),
        threads);
    if (config.preload) {
      PreloadConfig preload;
      preload.adoption = config.preload_adoption;
      preload.window_start_hour = config.preload_start_hour;
      preload.window_end_hour = config.preload_end_hour;
      trace.view = apply_preload(trace.view, preload, config.seed, threads);
    }
    trace.sessions = static_cast<double>(trace.view.size());
  }

  /// Stage 2: one simulation, as cmd_simulate.cpp runs it.
  void simulate(SharedRun& run, unsigned threads) {
    const CellConfig& config = *run.config;
    const Metro& metro = MetroRegistry::instance().get(config.metro);
    const HybridSimulator simulator(
        metro, simulate_config(metro, config, run.hourly, threads));
    SharedTrace& trace = traces_[run.trace];
    if (run.preload_curve == nullptr) {
      run.result = simulator.run(trace.view, nullptr);
      release(trace);
      return;
    }
    const TraceView shifted =
        CarbonScheduler(*run.preload_curve, ScheduleConfig{})
            .schedule_preload(trace.view, config.seed, threads);
    release(trace);
    run.result = simulator.run(shifted, nullptr);
  }

  /// Stage 3: cell i's metrics from the shared results, in the order and
  /// with the calls of cmd_simulate.cpp — that is what makes a cell
  /// bit-identical to the standalone CLI run.
  void price_cell(std::size_t i, unsigned threads) {
    const CellConfig& config = configs_[i];
    const CellPlan& plan = plans_[i];
    const Metro& metro = *plan.metro;
    CellOutcome& outcome = outcomes_[i];
    if (plan.trace != kNone) {
      outcome.sessions = traces_[plan.trace].sessions;
      outcome.metrics.set("sessions", outcome.sessions);
    }

    if (config.simulate) {
      const SimResult& result = runs_[plan.run].result;
      SimConfig sim_config;
      sim_config.q_over_beta = config.qb;
      sim_config.threads = threads;
      const Analyzer analyzer(metro, sim_config);
      outcome.metrics.set("offload", result.offload());
      for (const AggregateOutcome& aggregate : analyzer.aggregate(result)) {
        outcome.metrics.set("savings_" + aggregate.model,
                            aggregate.sim_savings);
        outcome.metrics.set("theory_savings_" + aggregate.model,
                            aggregate.theory_savings);
      }
      if (config.overload) {
        outcome.metrics.set("overload_spill_gb",
                            result.overload_spill.value() / 8e9);
      }
      if (plan.intensity != nullptr) {
        for (const CarbonOutcome& carbon :
             analyzer.carbon_report(result, *plan.intensity)) {
          outcome.metrics.set("carbon_savings_" + carbon.model,
                              carbon.carbon_savings);
          outcome.metrics.set("carbon_saved_g_" + carbon.model,
                              carbon.saved_g);
        }
      }
      if (config.schedule != "off") {
        price_schedule(config, plan, analyzer, outcome);
      }
    }

    if (config.adoption > 0) {
      // The incentive fixed point per energy model (uniform thresholds,
      // the ISP-0 tree).
      for (const auto& params : standard_params()) {
        const AdoptionModel model(SavingsModel(params, metro.isp(0)));
        AdoptionConfig adoption;
        adoption.swarm_capacity = config.adoption;
        adoption.q_over_beta = config.qb;
        adoption.uniform_thresholds(2000, -0.5, 0.5);
        const AdoptionResult result = model.solve(adoption);
        outcome.metrics.set("participation_" + params.name,
                            result.participation);
        outcome.metrics.set("adoption_cct_" + params.name, result.cct);
        outcome.metrics.set("adoption_offload_" + params.name,
                            result.offload);
        outcome.metrics.set("adoption_savings_" + params.name,
                            result.savings);
      }
    }

    if (config.edge_cache > 0) {
      // ExP LRU caches over the shared trace (no metric collection in the
      // miss simulation).
      SimConfig cache_sim;
      cache_sim.q_over_beta = config.qb;
      cache_sim.threads = threads;
      cache_sim.collect_hourly = false;
      cache_sim.collect_per_user = false;
      cache_sim.collect_swarms = false;
      EdgeCacheConfig cache_config;
      cache_config.capacity_per_exp = config.edge_cache;
      cache_config.misses_use_p2p = config.edge_cache_p2p;
      SharedTrace& trace = traces_[plan.trace];
      const EdgeCacheOutcome cached =
          EdgeCacheSimulator(metro, cache_sim, cache_config).run(trace.view);
      release(trace);
      outcome.metrics.set("cache_hit_rate", cached.hit_rate());
      for (const auto& params : standard_params()) {
        outcome.metrics.set("cache_savings_" + params.name,
                            EdgeCacheSimulator::savings(cached, params));
      }
    }

    if (config.simulate) {
      if (plan.preloaded != kNone) release(runs_[plan.preloaded]);
      outcome.sim = take(runs_[plan.run]);
      if (plan.intensity == nullptr) {
        // A standalone run without --intensity collects no hourly grid.
        outcome.sim.config.collect_hourly = false;
        outcome.sim.hourly = {};
        outcome.sim.hourly_spill = {};
      }
    }
  }

  /// The schedule section: routing plan plus the scheduled-vs-unscheduled
  /// assessment per energy model.
  void price_schedule(const CellConfig& config, const CellPlan& plan,
                      const Analyzer& analyzer, CellOutcome& outcome) {
    const CarbonScheduler scheduler(*plan.intensity, ScheduleConfig{});
    const SimResult& result = runs_[plan.run].result;
    const SimResult& scheduled =
        plan.preloaded == kNone ? result : runs_[plan.preloaded].result;
    const std::size_t home = metro_registry_index(plan.metro->name());
    const std::size_t hours = scheduled.hourly.size();
    const RoutingPlan routing =
        schedule_routes(config.schedule)
            ? scheduler.plan_routes(
                  serving_curves(plan.metro->name(), *plan.intensity), home,
                  hours)
            : scheduler.home_plan(home, hours);
    outcome.metrics.set("schedule_hours_routed_away",
                        static_cast<double>(routing.hours_routed_away()));
    outcome.metrics.set("schedule_mean_added_latency_ms",
                        routing.mean_added_latency_ms());
    outcome.metrics.set("schedule_scheduled_offload", scheduled.offload());
    for (const auto& params : analyzer.models()) {
      const EnergyAccountant accountant{CostFunctions(params)};
      const ScheduleOutcome assessed = scheduler.assess(
          result.hourly, scheduled.hourly, accountant, routing);
      outcome.metrics.set("schedule_reduction_" + params.name,
                          assessed.reduction);
      outcome.metrics.set("schedule_scheduled_g_" + params.name,
                          assessed.scheduled_g);
    }
  }

  const std::vector<CellConfig>& configs_;
  std::vector<CellPlan> plans_;
  std::map<std::string, IntensityCurve> csv_curves_;
  std::map<TraceKey, std::size_t> trace_index_;
  std::deque<SharedTrace> traces_;  // deque: slots never move
  std::map<RunKey, std::size_t> run_index_;
  std::deque<SharedRun> runs_;
  std::vector<CellOutcome> outcomes_;
};

}  // namespace

CellPlanRun run_cell_plan(const std::vector<CellConfig>& configs,
                          unsigned threads, const CellDone& on_done) {
  return CellPlanner(configs).run(threads, on_done);
}

CellOutcome run_cell(const CellConfig& config, unsigned threads) {
  return std::move(run_cell_plan({config}, threads).outcomes.front());
}

}  // namespace cl
