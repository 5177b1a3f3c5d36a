#!/usr/bin/env python3
"""The benchmark's own test: a tiny-size pass of every workload, untraced and
traced, plus negative cases that must exit non-zero.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds through run.py on first use and takes
a few seconds after that.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["serve", "lanes_coarse", "lanes_fine", "campaign"]


def run(workload, trace, *extra, seed=3):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--tiny", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class TinyPass(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_every_workload_passes_untraced_and_traced(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run(workload, trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    names = [m["name"] for m in self.spec[key]]
                    self.assertEqual(list(result["metrics"]), names)
                    if trace:
                        self.assertEqual(
                            result["metrics"]["trace.replay_match"]["value"], 1)
                        self.assertGreaterEqual(
                            result["metrics"]["trace.coverage"]["value"], 0.9)
                    else:
                        for name in names:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)

    def test_workload_is_listed(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], WORKLOADS)


class Negative(unittest.TestCase):
    def test_tampered_outputs_fail_the_run(self):
        for workload, tamper in (("lanes_fine", "lane"), ("lanes_coarse", "lane"),
                                 ("serve", "eq4"), ("campaign", "digest")):
            with self.subTest(workload=workload, tamper=tamper):
                code, result, err = run(workload, 0, "--tamper", tamper)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertIn("CHECK FAILED", err)

    def test_unknown_workload_fails(self):
        code, _, _ = run("nonesuch", 0)
        self.assertNotEqual(code, 0)

    def test_writer_creates_its_output_directory(self):
        base = os.path.join(ROOT, ".bench_out", "test-%d" % os.getpid())
        out = os.path.join(base, "nested")
        shutil.rmtree(base, ignore_errors=True)
        try:
            code, _, err = run("lanes_fine", 1, "--out-dir", out)
            self.assertEqual(code, 0, err)
            self.assertTrue(os.path.exists(
                os.path.join(out, "spans-lanes_fine-seed3.json")))
            self.assertTrue(os.path.exists(
                os.path.join(out, "result-lanes_fine-seed3-trace1.json")))
        finally:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
