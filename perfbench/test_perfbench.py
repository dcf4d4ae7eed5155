"""Smoke test of the repository benchmark.

Runs every workload at the smoke size, timed and traced, and checks the
result line against BENCHMARK.json. Also checks that the benchmark refuses
to run, without printing a result, when the library sources are missing.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SpecTest(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names += [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in metrics:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, trace):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in wanted])
        for m in wanted:
            value = result["metrics"][m["name"]]
            self.assertEqual(value["unit"], m["unit"])
            self.assertIsInstance(value["value"], (int, float))
            if not trace:
                self.assertGreater(value["value"], 0, m["name"])
        self.assertIn("# stamp ", proc.stdout)
        self.assertNotIn("check FAIL", proc.stdout)

    def test_every_workload_timed_and_traced(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_result(run_bench(ROOT, w["name"], trace),
                                      trace)

    def test_refuses_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_tmp", f"bare-{os.getpid()}")
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, SPEC["workloads"][0]["name"], 0,
                             smoke=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
