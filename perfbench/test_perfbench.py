#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

  python3 -m unittest discover -s perfbench -p 'test_*.py'

The slow tests build the benchmark (if needed) and run short workloads.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((run.HERE / "workloads.json").read_text())


def run_bench(*args, cwd=run.ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)
    return done.returncode, done.stdout.strip().splitlines()


class DeclarationTest(unittest.TestCase):
    """BENCHMARK.json, workloads.json and run.py name the same things."""

    def test_metric_names_and_units(self):
        for key, emitted in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            self.assertEqual(declared, emitted, key)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(PLAN["workloads"]))
        for name, workload in PLAN["workloads"].items():
            self.assertEqual(workload["command"][0], "cl", name)
            self.assertIn("--threads", workload["command"], name)

    def test_predictions_name_declared_metrics(self):
        layers = {m["name"] for m in BENCHMARK["per_layer"]}
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        for prediction in PLAN["predictions"]:
            self.assertIn(prediction["layer"], layers)
            self.assertLessEqual(set(prediction["moves"]), end_to_end)
            self.assertLessEqual(set(prediction["on"]), set(PLAN["workloads"]))
        self.assertEqual({p["layer"] for p in PLAN["predictions"]}, layers)


class EmittedOutputTest(unittest.TestCase):
    """A real run prints exactly the declared metrics."""

    def check_result(self, trace, declared):
        code, lines = run_bench("--workload", "replay_7d", "--seed", "3",
                                "--seconds", "1", "--trace", str(trace))
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})

    def test_untraced_run_emits_end_to_end_metrics(self):
        self.check_result(0, BENCHMARK["end_to_end"])

    def test_traced_run_emits_per_layer_metrics(self):
        self.check_result(1, BENCHMARK["per_layer"])


class FailureTest(unittest.TestCase):

    def test_corrupted_input_counts_as_failure(self):
        """A truncated trace makes every timed invocation fail; the run
        still finishes and reports the failures."""
        run.ensure_built()
        original = run.Workload.make_reference

        def reference_then_truncate(workload):
            original(workload)
            trace = workload.inputs / "london_7d.cltrace"
            data = trace.read_bytes()
            trace.write_bytes(data[: len(data) // 2])

        run.Workload.make_reference = reference_then_truncate
        try:
            result, _, failed = run.run_workload("replay_7d", 5, 1, False)
        finally:
            run.Workload.make_reference = original
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], run.MIN_SAMPLES + 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(all(inv.reason.startswith("exit code")
                            for inv in failed))

    def test_without_sources_exits_nonzero_without_result(self):
        """In a directory holding only BENCHMARK.json and perfbench/."""
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run_bench("--workload", "replay_7d", "--seed", "1",
                                    "--seconds", "1", "--trace", "0",
                                    cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
