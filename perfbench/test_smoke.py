#!/usr/bin/env python3
"""Smoke test of the repository benchmark: tiny sizes of every workload, untraced and traced.

    python3 perfbench/test_smoke.py

Asserts that every metric BENCHMARK.json names is emitted with its unit, that the output checks
pass (error_rate 0), and that the benchmark refuses to run without the simulator sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(["python3", "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        out = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                        "--trace", str(trace), "--smoke")
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            emitted = result["metrics"][metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(emitted["value"], (int, float), metric["name"])
            if not trace:
                self.assertNotEqual(emitted["value"], 0, metric["name"])
        if trace:
            self.assertEqual(result["metrics"]["error_rate"]["value"], 0)
        self.assertIn("provenance ", out.stdout)

    def test_workloads(self):
        for workload in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check_run(workload["name"], trace)

    def test_refuses_without_sources(self):
        alone = ROOT / ".bench_build" / "sources-absent"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, alone / path)
        out = run_bench(alone, "--workload", BENCH["workloads"][0]["name"], "--seconds", "1")
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
