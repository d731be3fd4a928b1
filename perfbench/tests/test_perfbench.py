#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny input scale.

    python3 perfbench/tests/test_perfbench.py

Run from the repository root; builds tlm_perfbench on first use like run.py.
  * every workload runs clean, untraced and traced;
  * the printed metric names and units match BENCHMARK.json;
  * every modeled metric repeats exactly across two runs with one seed.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("table1_sim", "sort_counting", "trace_offline", "tenant_jobs")
MODELED = ("speedup_2x", "speedup_4x", "speedup_8x", "skew_speedup_8x",
           "gnu_model_s", "nmsort_model_s", "model_p99_ms")
SCALE = "32"
SECONDS = "2"


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError("%s trace=%d exited %d\n%s\n%s" % (
            workload, trace, p.returncode, p.stdout[-2000:], p.stderr[-2000:]))
    return json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = spec()
        cls.runs = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = run(w, 3, trace)

    def test_benchmark_json_lists_the_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])

    def test_smoke_every_workload_clean(self):
        for (w, trace), r in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)

    def test_metric_names_and_units_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    got = {k: v["unit"]
                           for k, v in self.runs[(w, trace)]["metrics"].items()}
                    self.assertEqual(got, want)

    def test_end_to_end_metrics_never_zero(self):
        for w in WORKLOADS:
            for name, m in self.runs[(w, 0)]["metrics"].items():
                with self.subTest(workload=w, metric=name):
                    self.assertIsNotNone(m["value"])
                    self.assertGreater(m["value"], 0)

    def test_modeled_metrics_repeat_exactly(self):
        for w in WORKLOADS:
            again = run(w, 3, 0)["metrics"]
            first = self.runs[(w, 0)]["metrics"]
            for name in MODELED:
                with self.subTest(workload=w, metric=name):
                    self.assertEqual(first[name]["value"], again[name]["value"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
