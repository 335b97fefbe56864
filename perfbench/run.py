#!/usr/bin/env python3
"""Repository benchmark: the real `cl` binary on four generated workloads.

Run from the repository root:

  python3 perfbench/run.py --workload replay_7d --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all   # every workload, one table;
                                            # exits 1 if an output check fails
  python3 perfbench/run.py --history            # recorded results by machine

The first run configures and builds perfbench/CMakeLists.txt (the library,
`cl` and cl_perftrace) into .bench_build/. Each run then

  1. generates the workload's inputs from --seed with cl_perftrace
     (timed several times: setup_s),
  2. renders the reference report in process with cl_perftrace at another
     thread count (results are bit-identical at every --threads),
  3. with --trace 0, invokes `cl` back to back for --seconds and times each
     invocation from outside (wall, getrusage CPU, peak RSS), checking every
     report against the reference;
     with --trace 1, alternates an untraced `cl` invocation with a traced
     cl_perftrace run of the same command (and, for matrix_3d, a per-cell
     replay), and derives the per-layer metrics from the spans.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Workload commands, seeds and reasons are in perfbench/workloads.json.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
HISTORY = ROOT / ".bench_results" / "history.jsonl"
CL = BUILD / "consumelocal" / "src" / "cli" / "cl"
PERFTRACE = BUILD / "cl_perftrace"

WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]

MIN_SAMPLES = 3          # timed invocations per run, even past --seconds
SETUP_MIN_REPS = 3       # input generations per run (setup_s is their median)
SETUP_MIN_SECONDS = 2.5  # ... repeated until at least this long in total
SETUP_MAX_REPS = 200
INVOKE_TIMEOUT = 60      # seconds before a hung invocation is killed
OVERRUN = 45             # stop sampling at most this long after --seconds

# name -> unit; the order is the print order.
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "sessions_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "trace.open_s": "s",
    "trace.read_rows_s": "s",
    "trace.transpose_s": "s",
    "trace.generate_s": "s",
    "sim.run_s": "s",
    "sim.run_cpu_s": "s",
    "sim.runs": "count",
    "sim.swarms": "count",
    "sim.group_s": "s",
    "sim.sweep_s": "s",
    "sim.merge_s": "s",
    "sim.gather_cpu_s": "s",
    "sim.events_cpu_s": "s",
    "sim.allocate_cpu_s": "s",
    "sim.parallel_eff": "ratio",
    "sim.parallel_eff_min": "ratio",
    "sim.overload_spill_gb": "GB",
    "core.aggregate_s": "s",
    "core.carbon_report_s": "s",
    "core.render_s": "s",
    "carbon.preload_s": "s",
    "carbon.plan_routes_s": "s",
    "carbon.assess_s": "s",
    "experiment.cell_s": "s",
    "experiment.cell_max_s": "s",
    "experiment.parallel_eff": "ratio",
    "experiment.trace_reuse": "ratio",
    "util.idle_thread_s": "s",
    "untraced_s": "s",
    "trace_overhead": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failed)."""


# ---------------------------------------------------------------- building

def ensure_built():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources beside {HERE.name}/ to build")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=900, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")


def fingerprint():
    """The machine and build a result was measured on."""
    fp = json.loads(subprocess.run([str(PERFTRACE), "fingerprint"],
                                   capture_output=True, text=True,
                                   check=True).stdout)
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fp["cpu_model"] = cpu_model
    fp["machine"] = platform.machine()
    fp["nproc"] = len(os.sched_getaffinity(0))
    fp["id"] = hashlib.sha256(
        json.dumps(fp, sort_keys=True).encode()).hexdigest()[:12]
    return fp


# ------------------------------------------------------------- invocations

class Invocation:
    """One finished child process, timed from outside."""

    def __init__(self, code, wall, cpu, rss_kb, stdout, stderr):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.ok = code == 0
        self.reason = "" if self.ok else f"exit code {code}"

    def fail(self, reason):
        self.ok = False
        self.reason = reason


def spawn(argv, scratch):
    """Runs argv with stdout/stderr to files; wall time from spawn to reap,
    CPU and peak RSS from the child's own rusage (os.wait4)."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    argv = [str(a) for a in argv]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(INVOKE_TIMEOUT)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return Invocation(os.waitstatus_to_exitcode(status), wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      out_path.read_bytes(),
                      err_path.read_text(errors="replace"))


def command_args(name, directory, out_dir, threads=None):
    """The workload's cl arguments (without the program)."""
    args = [a.format(dir=directory, out=out_dir)
            for a in WORKLOADS[name]["command"][1:]]
    if threads is not None:
        args[args.index("--threads") + 1] = str(threads)
    return args


# ------------------------------------------------------------ output check

IGNORED_CELL_KEYS = ("wall_seconds", "sessions_per_second", "threads")


def experiment_view(stdout, out_dir):
    """What `cl experiment` must reproduce: its stdout with timings removed
    and the progress lines (which arrive in completion order) sorted, plus
    every BENCH_*.json it wrote with its timing and thread keys removed."""
    lines = stdout.decode().replace(str(out_dir), "<out>").splitlines()
    if len(lines) < 2:
        raise ValueError("experiment output is truncated")
    progress = sorted(re.sub(r"\s+\([^()]* s\)$", "", line)
                      for line in lines[1:-1])
    footer = re.sub(r"\(wall [^()]*\)", "(wall)", lines[-1])
    files = {}
    for path in sorted(Path(out_dir).glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        for key in IGNORED_CELL_KEYS:
            record.pop(key, None)
        files[path.name] = record
    return {"stdout": [lines[0], *progress, footer], "files": files}


class Workload:
    """Inputs, reference and check for one workload at one seed."""

    def __init__(self, name, seed, scratch):
        if name not in WORKLOADS:
            raise BenchError(f"unknown workload '{name}' "
                             f"(valid: {', '.join(WORKLOADS)})")
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.inputs = scratch / "inputs"
        self.inputs.mkdir(parents=True)
        self.is_experiment = WORKLOADS[name]["command"][1] == "experiment"
        self.setup_times = []
        self.summary = {}
        self.reference = None
        self.sessions = 0

    def setup(self):
        """Generates the inputs from the seed, several times (setup_s)."""
        argv = [str(PERFTRACE), "generate", "--workload", self.name,
                "--seed", str(self.seed), "--dir", str(self.inputs)]
        while (len(self.setup_times) < SETUP_MIN_REPS
               or sum(self.setup_times) < SETUP_MIN_SECONDS) \
                and len(self.setup_times) < SETUP_MAX_REPS:
            start = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=INVOKE_TIMEOUT, check=False)
            self.setup_times.append(time.perf_counter() - start)
            if done.returncode != 0:
                raise BenchError(f"input generation failed: {done.stderr}")
            self.summary = json.loads(done.stdout)

    def out_dir(self):
        """An empty directory for an experiment's BENCH files."""
        path = self.scratch / "out"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def cl_argv(self, out_dir):
        return [CL, *command_args(self.name, self.inputs, out_dir)]

    def view(self, invocation, out_dir):
        if self.is_experiment:
            return experiment_view(invocation.stdout, out_dir)
        return invocation.stdout

    def make_reference(self):
        """The report rendered in process at the reference thread count,
        sanity-checked against what the generator wrote."""
        out_dir = self.out_dir()
        threads = WORKLOADS[self.name]["reference_threads"]
        ref = spawn([PERFTRACE, "run", "--",
                     *command_args(self.name, self.inputs, out_dir, threads)],
                    self.scratch)
        if not ref.ok:
            raise BenchError(f"reference run failed: {ref.stderr.strip()}")
        self.reference = self.view(ref, out_dir)
        if self.is_experiment:
            manifest = f"BENCH_{self.name}.json"
            cells = [record for file, record in self.reference["files"].items()
                     if file != manifest]
            if len(cells) != self.summary["cells"]:
                raise BenchError("reference wrote the wrong number of cells")
            self.sessions = sum(c["sessions"] for c in cells)
        else:
            self.sessions = self.summary["sessions"]
            text = self.reference.decode()
            if (f"sessions: {self.sessions}," not in text
                    and f"): {self.sessions} session segments" not in text):
                raise BenchError("reference report does not show the "
                                 f"{self.sessions} generated sessions")

    def check(self, invocation, out_dir):
        """Marks the invocation failed unless it reproduced the reference."""
        if not invocation.ok:
            return
        try:
            if self.view(invocation, out_dir) != self.reference:
                invocation.fail("output differs from the reference report")
        except (ValueError, OSError, UnicodeDecodeError) as err:
            invocation.fail(f"output unreadable: {err}")

    def invoke_cl(self):
        out_dir = self.out_dir()
        invocation = spawn(self.cl_argv(out_dir), self.scratch)
        self.check(invocation, out_dir)
        return invocation

    def invoke_traced(self):
        """A traced cl_perftrace run of the workload's command."""
        out_dir = self.out_dir()
        spans_path = self.scratch / "spans.json"
        spans_path.unlink(missing_ok=True)
        invocation = spawn([PERFTRACE, "run", "--spans", spans_path, "--",
                            *command_args(self.name, self.inputs, out_dir)],
                           self.scratch)
        self.check(invocation, out_dir)
        invocation.spans = read_spans(invocation, spans_path)
        return invocation

    def invoke_cells(self):
        """matrix_3d only: the per-cell replay, checked cell by cell against
        the reference's cell files."""
        spans_path = self.scratch / "spans.json"
        spans_path.unlink(missing_ok=True)
        command = WORKLOADS[self.name]["command"]
        threads = command[command.index("--threads") + 1]
        invocation = spawn([PERFTRACE, "cells", "--spans", spans_path,
                            "--threads", threads, "--",
                            self.summary["file"]], self.scratch)
        invocation.spans = read_spans(invocation, spans_path)
        if invocation.ok:
            manifest = f"BENCH_{self.name}.json"
            expected = {file: record["metrics"] for file, record
                        in self.reference["files"].items() if file != manifest}
            try:
                cells = [json.loads(line)
                         for line in invocation.stdout.decode().splitlines()]
                got = {f"BENCH_{self.name}_{cell['slug']}.json":
                       cell["metrics"] for cell in cells}
            except (ValueError, KeyError) as err:
                invocation.fail(f"cell replay output unreadable: {err}")
            else:
                if got != expected:
                    invocation.fail("cell replay differs from the cell files")
        return invocation


def read_spans(invocation, path):
    if not invocation.ok:
        return []
    try:
        return json.loads(path.read_text())["spans"]
    except (OSError, ValueError, KeyError) as err:
        invocation.fail(f"spans unreadable: {err}")
        return []


# ----------------------------------------------------------------- metrics

def layer_metrics(traced, cells):
    """Per-layer numbers of one traced cycle: `traced` is the traced
    command run, `cells` the matrix cell replay (or None)."""
    spans = traced.spans + (cells.spans if cells else [])

    def named(name, source=spans):
        return [s for s in source if s["name"] == name]

    def wall(name):
        return sum(s["wall_s"] for s in named(name))

    sims = named("sim.run")

    def sim_attr(key):
        return sum(s["attrs"][key] for s in sims)

    m = {
        "trace.open_s": wall("trace.open"),
        "trace.read_rows_s": wall("trace.read_rows"),
        "trace.transpose_s": wall("trace.transpose"),
        "trace.generate_s": wall("trace.generate"),
        "sim.run_s": sum(s["wall_s"] for s in sims),
        "sim.run_cpu_s": sum(s["cpu_s"] for s in sims),
        "sim.runs": len(sims),
        "sim.swarms": sim_attr("swarms"),
        "sim.group_s": sim_attr("group_s"),
        "sim.sweep_s": sim_attr("sweep_s"),
        "sim.merge_s": sim_attr("merge_s"),
        "sim.gather_cpu_s": sim_attr("gather_cpu_s"),
        "sim.events_cpu_s": sim_attr("events_cpu_s"),
        "sim.allocate_cpu_s": sim_attr("allocate_cpu_s"),
        "sim.parallel_eff": parallel_eff(sims),
        "sim.overload_spill_gb": sim_attr("overload_spill_gb"),
        "core.aggregate_s": wall("core.aggregate"),
        "core.carbon_report_s": wall("core.carbon_report"),
        "core.render_s": wall("core.render"),
        "carbon.preload_s": wall("carbon.preload"),
        "carbon.plan_routes_s": wall("carbon.plan_routes"),
        "carbon.assess_s": wall("carbon.assess"),
        "experiment.cell_s": 0.0,
        "experiment.cell_max_s": 0.0,
        "experiment.parallel_eff": 0.0,
        "experiment.trace_reuse": 0.0,
    }
    runs = named("experiment.run", traced.spans)
    if runs:
        cell_seconds = [c for s in runs for c in s["attrs"]["cell_s"]]
        m["experiment.cell_s"] = statistics.median(cell_seconds)
        m["experiment.cell_max_s"] = max(cell_seconds)
        m["experiment.parallel_eff"] = parallel_eff(runs)
    generated = named("trace.generate")
    if generated:
        keys = {s["attrs"]["key"] for s in generated}
        m["experiment.trace_reuse"] = len(keys) / len(generated)
    top = [s for s in traced.spans if s["parent"] == -1]
    m["untraced_s"] = traced.wall - sum(s["wall_s"] for s in top)
    m["util.idle_thread_s"] = sum(
        s["wall_s"] * s["attrs"]["threads"] - s["cpu_s"] for s in top
        if s["name"] in ("sim.run", "experiment.run"))
    return m


def parallel_eff(spans):
    """CPU seconds over (wall seconds x threads) of parallel spans."""
    capacity = sum(s["wall_s"] * s["attrs"]["threads"] for s in spans)
    return sum(s["cpu_s"] for s in spans) / capacity if capacity > 0 else 0.0


def p10(values):
    """10th percentile, the reported timing statistic. On a shared 4-vCPU
    VM, neighbours' load slows some invocations by 10-40% in bursts that
    can last a whole run: the median of a 20 s run moved 10-25% between
    runs, this low quantile 3-8%. Unlike the minimum, it does not hinge on
    a single lucky invocation."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def describe(values, stat="median", value=None):
    """A reported metric: its value (`stat` of `values` unless given) plus
    the median, range and sample count it was taken from."""
    if value is None:
        value = {"p10": p10, "median": statistics.median, "min": min,
                 "max": max}[stat](values)
    return {"value": value, "stat": stat, "median": statistics.median(values),
            "min": min(values), "max": max(values), "n": len(values)}


# -------------------------------------------------------------------- runs

def sample_until(deadline, hard_stop, cycles, step):
    while len(cycles) < MIN_SAMPLES or time.perf_counter() < deadline:
        if time.perf_counter() > hard_stop:
            break
        cycles.append(step())


def run_workload(name, seed, seconds, traced):
    """One benchmark run: (result line, per-metric statistics, failed
    invocations)."""
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        workload = Workload(name, seed, scratch)
        workload.setup()
        workload.make_reference()
        attempted = []
        attempted.append(workload.invoke_cl())  # warm-up, checked, untimed
        start = time.perf_counter()
        deadline, hard_stop = start + seconds, start + seconds + OVERRUN
        if not traced:
            samples = []
            sample_until(deadline, hard_stop, samples, workload.invoke_cl)
            attempted += samples
            timed = [s for s in samples if s.ok] or samples
            walls = [s.wall for s in timed]
            run_s = describe(walls, "p10")
            stats = {
                "run_s": run_s,
                "cpu_s": describe([s.cpu for s in timed], "p10"),
                "sessions_per_s": describe(
                    [workload.sessions / w for w in walls], "sessions/run_s",
                    workload.sessions / run_s["value"]),
                "peak_rss_mb": describe([s.rss_kb / 1024 for s in timed],
                                        "max"),
                "setup_s": describe(workload.setup_times),
            }
            units = END_TO_END
        else:
            cycles = []

            def cycle():
                plain = workload.invoke_cl()
                traced_run = workload.invoke_traced()
                cells = workload.invoke_cells() if workload.is_experiment \
                    else None
                return plain, traced_run, cells

            sample_until(deadline, hard_stop, cycles, cycle)
            for c in cycles:
                attempted += [i for i in c if i is not None]
            good = [c for c in cycles if all(i.ok for i in c if i is not None)]
            per_cycle = [layer_metrics(t, c) for _, t, c in good or cycles]
            stats = {key: describe([m[key] for m in per_cycle])
                     for key in per_cycle[0]}
            effs = [m["sim.parallel_eff"] for m in per_cycle]
            stats["sim.parallel_eff_min"] = describe(effs, "min")
            plain = [c[0].wall for c in good or cycles]
            traced_walls = [c[1].wall for c in good or cycles]
            stats["trace_overhead"] = describe(
                [t - p for t, p in zip(traced_walls, plain)], "p10 - p10",
                p10(traced_walls) - p10(plain))
            units = PER_LAYER
        failed = [i for i in attempted if not i.ok]
        result = {
            "correct": not failed,
            "attempted": len(attempted),
            "failed": len(failed),
            "metrics": {key: {"value": stats[key]["value"], "unit": unit}
                        for key, unit in units.items()},
        }
        return result, stats, failed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def record_history(name, seed, seconds, traced, fp, result):
    """Appends the result, stamped with the fingerprint; reports how many
    earlier results of this workload are comparable (same fingerprint)."""
    same = other = 0
    if HISTORY.is_file():
        for line in HISTORY.read_text().splitlines():
            try:
                old = json.loads(line)
            except ValueError:
                continue
            if old.get("workload") == name and old.get("trace") == traced:
                if old.get("fingerprint", {}).get("id") == fp["id"]:
                    same += 1
                else:
                    other += 1
    HISTORY.parent.mkdir(exist_ok=True)
    with HISTORY.open("a") as out:
        out.write(json.dumps({"workload": name, "seed": seed,
                              "seconds": seconds, "trace": traced,
                              "time": time.time(), "fingerprint": fp,
                              **result}) + "\n")
    return same, other


def print_rows(name, stats, units, failed, attempted):
    print(f"{name}: fail_frac {len(failed)}/{attempted} = "
          f"{len(failed) / attempted:.4g}")
    for key, unit in units.items():
        s = stats[key]
        print(f"  {key:<24} {s['value']:>14.6g} {unit:<6} {s['stat']} of "
              f"n={s['n']}  [median {s['median']:.6g}, min {s['min']:.6g}, "
              f"max {s['max']:.6g}]")
    for inv in failed[:5]:
        print(f"  FAILED: {inv.reason} {inv.stderr.strip()[:200]}")


def show_history(fp):
    """Recorded results grouped by fingerprint; groups measured on another
    machine or build are marked as not comparable."""
    groups = {}
    if HISTORY.is_file():
        for line in HISTORY.read_text().splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            key = (rec["fingerprint"]["id"], rec["workload"], rec["trace"])
            groups.setdefault(key, (rec["fingerprint"], []))[1].append(rec)
    for (fid, workload, traced), (rec_fp, recs) in sorted(groups.items()):
        mark = "comparable" if fid == fp["id"] else "NOT comparable"
        print(f"[{fid}] {mark}: {workload} trace={traced} "
              f"runs={len(recs)} ({rec_fp['cpu_model']}, "
              f"{rec_fp['nproc']} cpus, {rec_fp['simd_backend']}, "
              f"{rec_fp['compiler']}, {rec_fp['build_type']})")
        for metric in recs[-1]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in recs
                      if metric in r["metrics"]]
            print(f"    {metric:<24} median {statistics.median(values):.6g} "
                  f"{recs[-1]['metrics'][metric]['unit']} (n={len(values)})")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--history", action="store_true",
                        help="print recorded results grouped by fingerprint")
    args = parser.parse_args(argv)

    try:
        ensure_built()
        fp = fingerprint()
        if args.history:
            show_history(fp)
            return 0
        traced = bool(args.trace)
        units = PER_LAYER if traced else END_TO_END
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        print(f"fingerprint {fp['id']}: " + json.dumps(fp, sort_keys=True))
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for name in names:
            result, stats, failed = run_workload(name, args.seed,
                                                 args.seconds, traced)
            same, other = record_history(name, args.seed, args.seconds,
                                         traced, fp, result)
            print_rows(name, stats, units, failed, result["attempted"])
            print(f"  history: {same} earlier results comparable, {other} "
                  "not comparable (different fingerprint)")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][key if len(names) == 1
                                    else f"{name}.{key}"] = value
        print(json.dumps(combined), flush=True)
        return 0 if combined["correct"] else 1
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
