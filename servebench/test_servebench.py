#!/usr/bin/env python3
"""Tests of the serving benchmark itself.

    python3 servebench/test_servebench.py

Builds the benchmark through run.py, then runs each workload briefly: input
determinism per seed, exact agreement repeats, the metric sets promised by
BENCHMARK.json, the traced run's Chrome JSON and span nesting, and refusal
outside a checkout. Takes about two minutes.
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
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def invoke(workload, seed, trace=0, seconds=1.0, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "servebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


class ServebenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()

    def result(self, out):
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], out.stdout)
        self.assertGreaterEqual(res["attempted"], 1)
        return lines, res

    @staticmethod
    def digests(lines):
        return [l.strip() for l in lines if l.strip().startswith("inputs ")]

    def test_seed_fixes_inputs_and_agreement(self):
        lines_a, a = self.result(invoke("online-mixture", 7))
        lines_b, b = self.result(invoke("online-mixture", 7))
        lines_c, _ = self.result(invoke("online-mixture", 8))
        self.assertTrue(self.digests(lines_a))
        self.assertEqual(self.digests(lines_a), self.digests(lines_b))
        self.assertEqual(a["attempted"], b["attempted"])
        self.assertEqual(a["metrics"]["agreement"]["value"],
                         b["metrics"]["agreement"]["value"])
        for da, dc in zip(self.digests(lines_a), self.digests(lines_c)):
            self.assertNotEqual(da, dc)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, res = self.result(invoke(workload, 3))
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for name, metric in res["metrics"].items():
                    self.assertNotEqual(metric["value"], 0, name)

    def test_traced_run_writes_nested_chrome_trace(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, res = self.result(invoke(workload, 5, trace=1))
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                path = os.path.join(bench.BUILD,
                                    "trace-%s-seed5.json" % workload)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                by_id = {e["args"]["id"]: e for e in events}
                self.assertEqual(len(by_id), len(events))
                cats = {e["cat"] for e in events}
                self.assertTrue({"setup", "e2e", "sched", "exec", "stage",
                                 "kernel"} <= cats, cats)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["args"]["self_us"], 0)
                    parent = e["args"]["parent"]
                    if parent == 0:
                        continue
                    p = by_id[parent]
                    # ts and dur are printed to 1 ns.
                    self.assertGreaterEqual(e["ts"], p["ts"] - 0.002)
                    self.assertLessEqual(e["ts"] + e["dur"],
                                         p["ts"] + p["dur"] + 0.002)

    def test_refuses_to_run_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "servebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = invoke("online-mixture", 1, root=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
