#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 e2e_bench/test_bench.py

They build the benchmark the way run.py does, run the C++ checks in
bench_test.cc (a wrong distance vector counted as failed, inputs that
follow the seed), then drive run.py itself for a short untraced and
traced pass of every workload and hold its output to BENCHMARK.json:
the metric names, their units, and a correct result.
"""

import json
import os
import re
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.test_binary = run.build("e2e_bench_test")
        run.build("hdcps_e2e")

    def test_cpp_checks(self):
        subprocess.run([self.test_binary], check=True)

    def test_spec_names_and_units(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", "9", "--seconds", "1",
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_every_workload_reports_its_metrics(self):
        s = spec()
        for w in s["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    metrics = self.run_workload(w["name"], trace)
                    expected = {m["name"]: m["unit"] for m in s[key]}
                    self.assertEqual(
                        {k: v["unit"] for k, v in metrics.items()}, expected)
                    if trace == 0:
                        for name, m in metrics.items():
                            self.assertGreater(m["value"], 0, name)

    def test_unknown_workload_fails_without_result(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", "no-such", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
