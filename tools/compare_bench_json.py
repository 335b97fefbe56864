#!/usr/bin/env python3
"""Compare BENCH_*.json wall times between two runs.

Reads the bench JSON files (written by bench binaries via --json, see
bench/bench_json.h) from a baseline directory and a current directory,
prints a wall-time comparison table for every bench present in both, and
fails when a *guarded* bench regressed by more than the allowed fraction.

Only the closed-form benches (fig5/table3/table4 by default) guard the
build: they do no trace generation or simulation, so their wall time is a
stable proxy for the hot-path code itself rather than for workload-scale
knobs, and they are cheap enough to run on every CI commit.

`--require` names benches that must be present in the current run with
parseable metrics — it guards *coverage* rather than wall time, so a
bench silently dropping out of the CI harness (e.g. fig_cross_metro, the
cross-metro experiment) fails the run even though its workload-scale wall
time is never gated.

`--min bench:metric:value` (repeatable) asserts an absolute floor on a
metric of the current run, with no baseline involved — e.g.
`--min micro_sweep:soa_over_row_speedup:5.0` pins the SoA sweep's
speedup bar so a hot-path regression fails even on the very first run
of a branch (where the wall-time comparison has nothing to compare).
`--max bench:metric:value` is the matching ceiling, e.g.
`--max fig2:mean_abs_gap:0.03` bounds how far the simulated savings may
stray from the paper's closed-form model.

Exit codes: 0 ok (including "no baseline yet"), 1 regression or missing
required bench, 2 usage.
"""

import argparse
import json
import sys
from pathlib import Path


def load_benches(directory: Path) -> dict:
    """Maps bench name -> parsed JSON for every BENCH_*.json under
    `directory` (searched recursively: artifact downloads may nest)."""
    benches = {}
    for path in sorted(directory.rglob("BENCH_*.json")):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: skipping unreadable {path}: {e}")
            continue
        name = data.get("bench")
        if not name or "wall_seconds" not in data:
            print(f"warning: skipping {path}: missing bench/wall_seconds")
            continue
        benches[name] = data
    return benches


def check_bounds(specs: list, flag: str, current: dict):
    """Checks `--min` (flag "--min") or `--max` BENCH:METRIC:VALUE specs
    against the current run. Returns the list of failures, or None after
    printing a usage error."""
    is_floor = flag == "--min"
    kind = "floor" if is_floor else "ceiling"
    failures = []
    for spec in specs:
        parts = spec.rsplit(":", 2)
        if len(parts) != 3:
            print(f"error: bad {flag} spec {spec!r} "
                  "(want BENCH:METRIC:VALUE)")
            return None
        bench, metric, raw = parts
        try:
            bound = float(raw)
        except ValueError:
            print(f"error: bad {flag} value in {spec!r}")
            return None
        value = current.get(bench, {}).get("metrics", {}).get(metric)
        if not isinstance(value, (int, float)):
            failures.append(f"{bench}:{metric} missing from current "
                            f"run ({kind} {bound:g})")
            continue
        ok = value >= bound if is_floor else value <= bound
        status = "ok" if ok else "FAIL"
        print(f"{kind} {bench}:{metric} = {value:g} "
              f"({'>=' if is_floor else '<='} {bound:g}) ... {status}")
        if not ok:
            failures.append(f"{bench}:{metric} = {value:g} "
                            f"{'below floor' if is_floor else 'above ceiling'}"
                            f" {bound:g}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=Path,
                        help="directory with the previous run's BENCH_*.json")
    parser.add_argument("--current", required=True, type=Path,
                        help="directory with this run's BENCH_*.json")
    parser.add_argument("--benches", default="fig5,table3,table4",
                        help="comma-separated bench names whose regression "
                             "fails the run (default: the closed-form "
                             "benches)")
    parser.add_argument("--require", default="",
                        help="comma-separated bench names that must be "
                             "present in the current run (coverage gate; "
                             "their wall time is not compared unless they "
                             "are also in --benches)")
    parser.add_argument("--min", action="append", default=[],
                        dest="floors", metavar="BENCH:METRIC:VALUE",
                        help="absolute floor on a current-run metric, e.g. "
                             "micro_sweep:soa_over_row_speedup:5.0 — fails "
                             "when the bench/metric is missing or the value "
                             "is below the floor (repeatable)")
    parser.add_argument("--max", action="append", default=[],
                        dest="ceilings", metavar="BENCH:METRIC:VALUE",
                        help="absolute ceiling on a current-run metric, "
                             "e.g. fig2:mean_abs_gap:0.03 — fails when the "
                             "bench/metric is missing or the value is above "
                             "the ceiling (repeatable)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional wall-time increase for "
                             "guarded benches (default 0.25 = +25%%)")
    parser.add_argument("--min-wall-delta", type=float, default=0.02,
                        help="ignore regressions whose absolute wall-time "
                             "increase is below this many seconds — the "
                             "closed-form benches run in milliseconds, so "
                             "a pure percentage gate would either trip on "
                             "scheduler noise or (with a minimum-wall "
                             "floor) never fire at all; an absolute delta "
                             "floor catches real regressions only "
                             "(default 0.02)")
    args = parser.parse_args()

    if not args.current.is_dir():
        print(f"error: current directory {args.current} does not exist")
        return 2
    current = load_benches(args.current)
    if not current:
        print(f"error: no BENCH_*.json found under {args.current}")
        return 2

    required = {b.strip() for b in args.require.split(",") if b.strip()}
    missing = sorted(required - set(current))
    if missing:
        print(f"FAIL: required benches missing from {args.current}: "
              f"{', '.join(missing)}")
        return 1
    for name in sorted(required):
        metrics = current[name].get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            print(f"FAIL: required bench {name} has no metrics object")
            return 1

    for flag, specs in (("--min", args.floors), ("--max", args.ceilings)):
        failures = check_bounds(specs, flag, current)
        if failures is None:
            return 2
        if failures:
            print(f"FAIL: metric {'floors' if flag == '--min' else 'ceilings'}"
                  " not met:")
            for failure in failures:
                print(f"  {failure}")
            return 1

    if not args.baseline.is_dir():
        print(f"no baseline at {args.baseline} — first run, nothing to "
              "compare (pass)")
        return 0
    baseline = load_benches(args.baseline)
    if not baseline:
        print(f"no baseline BENCH_*.json under {args.baseline} — pass")
        return 0

    guarded = {b.strip() for b in args.benches.split(",") if b.strip()}
    failures = []
    print(f"{'bench':<24} {'baseline s':>12} {'current s':>12} "
          f"{'delta':>8}  guarded")
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline or name not in current:
            where = "baseline" if name not in current else "current"
            print(f"{name:<24} {'—':>12} {'—':>12} {'—':>8}  "
                  f"(only in {where})")
            continue
        base_wall = float(baseline[name]["wall_seconds"])
        cur_wall = float(current[name]["wall_seconds"])
        delta = (cur_wall - base_wall) / base_wall if base_wall > 0 else 0.0
        is_guarded = name in guarded
        marker = "yes" if is_guarded else "no"
        print(f"{name:<24} {base_wall:>12.4f} {cur_wall:>12.4f} "
              f"{delta:>+7.1%}  {marker}")
        if (is_guarded and base_wall > 0 and delta > args.max_regression
                and cur_wall - base_wall >= args.min_wall_delta):
            failures.append((name, base_wall, cur_wall, delta))

    if failures:
        print(f"\nFAIL: wall-time regression above "
              f"{args.max_regression:.0%} on guarded benches:")
        for name, base_wall, cur_wall, delta in failures:
            print(f"  {name}: {base_wall:.4f}s -> {cur_wall:.4f}s "
                  f"({delta:+.1%})")
        return 1
    print("\nok: no guarded bench regressed beyond "
          f"{args.max_regression:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
