"""Tests of the host-cost benchmark itself.

    python3 -m unittest discover -s hostbench -p 'test_*.py'

They run hostbench/run.py end to end with short runs, so they build the
simulator on first use (into .bench_build/) and take a few minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Per workload, counts of the layers it was chosen for: the repeat check
# below must not pass on zeros.
EXERCISED = {
    "radix-vmmc-16x16": ("nic.au_stores", "core.vmmc_au_bindings"),
    "ocean-nx-16x16": ("msg.nx_sends", "mesh.packets"),
    "ocean-nx-16x16-causal": ("obs.causal_spans", "obs.report_bytes"),
    "table1-3nic": ("svm.faults", "sockets.sends", "nic.du_transfers"),
}


def bench(*args):
    """Run the benchmark; returns (exit code, last stdout line as JSON)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--seconds", "0", *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS]:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)


class EndToEnd(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_unit(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, out = bench("--workload", w, "--seed", "1",
                                  "--trace", "0")
                self.assertEqual(code, 0)
                self.assertEqual(set(out), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in out["metrics"].items()},
                    run.END_TO_END)
                for k, v in out["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_wrong_reference_makes_runs_fail(self):
        with open(run.REFERENCES) as f:
            refs = json.load(f)
        w = "ocean-nx-16x16"
        refs[w]["runs"][0]["checksum"] += 1
        run.build()
        runner = run.Runner(w, refs)
        self.assertIsNotNone(runner.run("full", run.DEFAULT_SEED))
        self.assertEqual(runner.attempted, 1)
        self.assertEqual(runner.failed, 1)


class Traced(unittest.TestCase):
    def test_counts_and_simulated_metrics_repeat(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                _, a = bench("--workload", w, "--seed", "2", "--trace", "1")
                _, b = bench("--workload", w, "--seed", "2", "--trace", "1")
                self.assertEqual(
                    {k: v["unit"] for k, v in a["metrics"].items()},
                    run.PER_LAYER)
                self.assertTrue(a["correct"] and b["correct"])
                for k, unit in run.PER_LAYER.items():
                    if unit not in run.HOST_UNITS:
                        self.assertEqual(a["metrics"][k], b["metrics"][k], k)
                for k in EXERCISED[w]:
                    self.assertGreater(a["metrics"][k]["value"], 0, k)


if __name__ == "__main__":
    unittest.main()
