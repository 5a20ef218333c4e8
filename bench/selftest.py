"""Tests of the benchmark runner itself, on the tiny --smoke inputs.

Run from the repository root (about half a minute):

    python3 -m unittest bench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


def result(*args):
    out = run(*args)
    if out.returncode != 0:
        raise AssertionError(f"runner failed: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.all = result("--workload", "all", "--smoke", "--seconds", "1", "--seed", "1")

    def check_result(self, res, units):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, units)

    def test_every_workload_untraced_and_traced(self):
        self.assertTrue(self.all["correct"])
        for name in WORKLOADS:
            untraced = self.all["results"][f"{name}/trace0"]
            self.check_result(untraced, END_TO_END)
            for metric, v in untraced["metrics"].items():
                self.assertGreater(v["value"], 0, f"{name} {metric}")
            self.check_result(self.all["results"][f"{name}/trace1"], PER_LAYER)

    def test_second_seed_gives_same_metric_set(self):
        for name in WORKLOADS:
            first = self.all["results"][f"{name}/trace0"]
            second = result("--workload", name, "--smoke", "--seconds", "1", "--seed", "2")
            self.check_result(second, END_TO_END)
            self.assertEqual(set(second["metrics"]), set(first["metrics"]))


class Standalone(unittest.TestCase):
    def test_fails_without_the_program(self):
        """With only BENCHMARK.json and bench/ there is nothing to measure."""
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("--workload", "md_hard", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
