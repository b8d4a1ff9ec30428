#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs the load generator's self-test (percentile and sample-count rule,
self-time subtraction, span parent links, span file read-back), checks
run.py's result validation, and makes short real runs: one with a seeded
corrupted read, which must be counted and fail the run, and one traced
run whose span file must read back. The first test builds the load
generator if needed.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__

import run  # noqa: E402


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


class SelfTest(unittest.TestCase):
    def test_load_generator_self_test(self):
        p = bench("--self-test")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("self-test: OK", p.stdout)


class CheckResult(unittest.TestCase):
    expected = {"a_us": "us", "b_s": "s"}

    def good(self):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"a_us": {"value": 1.5, "unit": "us"},
                            "b_s": {"value": 0.25, "unit": "s"}}}

    def test_accepts_a_matching_result(self):
        self.assertEqual(run.check_result(self.good(), self.expected), [])

    def test_rejects_a_missing_metric(self):
        r = self.good()
        del r["metrics"]["b_s"]
        self.assertTrue(run.check_result(r, self.expected))

    def test_rejects_a_wrong_unit_or_non_finite_value(self):
        r = self.good()
        r["metrics"]["a_us"]["unit"] = "ms"
        self.assertTrue(run.check_result(r, self.expected))
        r = self.good()
        r["metrics"]["a_us"]["value"] = float("nan")
        self.assertTrue(run.check_result(r, self.expected))

    def test_rejects_zero_attempts(self):
        r = self.good()
        r["attempted"] = 0
        self.assertTrue(run.check_result(r, self.expected))

    def test_benchmark_json_lists_every_reported_metric_once(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)


class Runs(unittest.TestCase):
    def test_corrupted_read_is_counted_and_fails_the_run(self):
        p = bench("--workload", "kv_c_b16_20k", "--seed", "3", "--seconds",
                  "1", "--trace", "0", "--corrupt-one-read")
        self.assertNotEqual(p.returncode, 0, p.stdout + p.stderr)
        r = result_of(p)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        frac = [line for line in p.stdout.split("\n")
                if line.strip().startswith("failed_frac")]
        self.assertTrue(frac and float(frac[0].split()[1]) > 0, p.stdout)

    def test_clean_run_passes(self):
        p = bench("--workload", "kv_c_b16_20k", "--seed", "3", "--seconds",
                  "1", "--trace", "0")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        r = result_of(p)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreater(r["metrics"]["throughput_mops"]["value"], 0)

    def test_ordered_scans_inserts_and_reopen_pass(self):
        p = bench("--workload", "ordered_e_file", "--seed", "3", "--seconds",
                  "1", "--trace", "0")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        r = result_of(p)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)

    def test_traced_run_writes_a_span_file_that_reads_back(self):
        p = bench("--workload", "net_a_p64", "--seed", "3", "--seconds",
                  "1.5", "--trace", "1")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        r = result_of(p)
        self.assertGreater(r["metrics"]["net.keys_per_kv_call"]["value"], 1)
        path = os.path.join(run.BUILD, "spans", "net_a_p64-seed3.tsv")
        with open(path) as f:
            header = f.readline().rstrip("\n")
            rows = [line.rstrip("\n").split("\t") for line in f]
        self.assertTrue(header.startswith("# perfbench spans v1"))
        names = {row[0] for row in rows}
        self.assertTrue({"net.round", "net.flush", "kv.multi_get",
                         "kv.multi_put"} <= names, names)
        ids = {row[2] for row in rows}
        for row in rows:
            self.assertEqual(len(row), 7)
            self.assertLessEqual(int(row[4]), int(row[5]))
            if row[0] == "net.flush":
                self.assertIn(row[3], ids)  # child of its round


if __name__ == "__main__":
    unittest.main()
