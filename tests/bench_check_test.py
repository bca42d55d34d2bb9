#!/usr/bin/env python3
"""Unit test of tools/bench_check.py, the guard of the committed BENCH_*.json baselines.

    python3 tests/bench_check_test.py

Covers both key classes: behavioural keys must match exactly (values, key sets, list lengths),
and volatile keys fail only in the slow direction, past the threshold, above their noise floor.
"""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_check", ROOT / "tools" / "bench_check.py")
bench_check = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_check)

MiB = 1024 * 1024


def errors_of(base, fresh, threshold=0.20, min_seconds=0.5):
    errors = []
    bench_check.compare(base, fresh, threshold, min_seconds, "", errors, [])
    return errors


class BehaviouralKeys(unittest.TestCase):
    def test_equal_documents_pass(self):
        doc = {"digest": "14d0361cebe77331", "rows": [{"ops": 10, "oom": False}]}
        self.assertEqual(errors_of(doc, json.loads(json.dumps(doc))), [])

    def test_value_mismatch_fails(self):
        self.assertEqual(errors_of({"rows": [{"ops": 10}]}, {"rows": [{"ops": 11}]}),
                         ["rows[0].ops: 10 -> 11"])

    def test_new_key_fails(self):
        self.assertEqual(errors_of({"a": 1}, {"a": 1, "b": 2}), ["b: new key (not in baseline)"])

    def test_missing_key_fails(self):
        self.assertEqual(errors_of({"a": 1, "b": 2}, {"a": 1}), ["b: missing from fresh run"])

    def test_list_length_change_fails(self):
        self.assertEqual(errors_of({"rows": [1, 2]}, {"rows": [1, 2, 3]}), ["rows: length 2 -> 3"])


class VolatileKeys(unittest.TestCase):
    def test_slower_time_key_over_threshold_fails(self):
        self.assertEqual(len(errors_of({"wall_seconds": 2.0}, {"wall_seconds": 2.5})), 1)
        self.assertEqual(len(errors_of({"total_ms": 1000.0}, {"total_ms": 1300.0})), 1)

    def test_slower_time_key_within_threshold_passes(self):
        self.assertEqual(errors_of({"wall_seconds": 2.0}, {"wall_seconds": 2.3}), [])

    def test_faster_time_key_passes(self):
        self.assertEqual(errors_of({"wall_seconds": 2.0}, {"wall_seconds": 0.6}), [])

    def test_sub_min_seconds_cells_are_skipped(self):
        self.assertEqual(errors_of({"wall_seconds": 0.4}, {"wall_seconds": 40.0}), [])
        self.assertEqual(errors_of({"plan_ms": 17.0}, {"plan_ms": 1700.0}), [])
        self.assertEqual(errors_of({"p99_latency_us": 4e5}, {"p99_latency_us": 4e7}), [])
        # The floor follows --min-seconds.
        self.assertEqual(len(errors_of({"wall_seconds": 0.4}, {"wall_seconds": 40.0},
                                       min_seconds=0.1)), 1)

    def test_rss_bytes_floor_is_32_mib(self):
        self.assertEqual(errors_of({"peak_rss_bytes": 31 * MiB}, {"peak_rss_bytes": 4096 * MiB}),
                         [])
        self.assertEqual(len(errors_of({"peak_rss_bytes": 32 * MiB},
                                       {"peak_rss_bytes": 64 * MiB})), 1)
        self.assertEqual(errors_of({"peak_rss_bytes": 64 * MiB}, {"peak_rss_bytes": 32 * MiB}),
                         [])

    def test_throughput_key_fails_when_it_drops(self):
        base = {"wall_seconds": 1.0, "ops_per_sec": 1e6}
        self.assertEqual(errors_of(base, {"wall_seconds": 1.0, "ops_per_sec": 5e5}),
                         ["ops_per_sec: 1e+06 -> 500000 (+50% worse, threshold 20%)"])
        self.assertEqual(errors_of(base, {"wall_seconds": 1.0, "ops_per_sec": 2e6}), [])

    def test_throughput_key_with_only_sub_floor_timers_is_skipped(self):
        base = {"wall_seconds": 0.1, "total_ms": 100.0, "ops_per_sec": 1e6}
        fresh = {"wall_seconds": 0.1, "total_ms": 100.0, "ops_per_sec": 1e3}
        self.assertEqual(errors_of(base, fresh), [])


class CommandLine(unittest.TestCase):
    def run_main(self, base, fresh):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / "base.json", Path(tmp) / "fresh.json"]
            for path, doc in zip(paths, (base, fresh)):
                path.write_text(json.dumps(doc))
            argv = ["bench_check.py", str(paths[0]), str(paths[1]), "--threshold", "1.0"]
            with mock.patch("sys.argv", argv), mock.patch("builtins.print"):
                return bench_check.main()

    def test_exit_status(self):
        base = {"digest": "ab", "wall_seconds": 2.0}
        self.assertEqual(self.run_main(base, {"digest": "ab", "wall_seconds": 3.9}), 0)
        self.assertEqual(self.run_main(base, {"digest": "ab", "wall_seconds": 4.1}), 1)
        self.assertEqual(self.run_main(base, {"digest": "cd", "wall_seconds": 2.0}), 1)


if __name__ == "__main__":
    unittest.main()
