#!/usr/bin/env python3
"""Self-test of the perfbench harness.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then runs every workload at a
short size and checks that
  - the same seed twice gives identical simulated-time and count metrics,
    end-to-end and per-layer (only host-clock metrics may differ), and
  - a second seed passes every correctness check, on every workload
    BENCHMARK.json lists; tpcc is expected to fail its lock-timeout check
    until the program stops rolling transactions back behind checkpoint
    floods (see README.md).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "1"


def bench(exe, workload, seed):
    proc = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                           "--seconds", SECONDS], stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout.strip().split("\n")[-1])


def deterministic(result):
    """The metrics read on the simulated clock or counted, as printed."""
    return {name: metric["value"]
            for block in ("e2e", "layer")
            for name, metric in result[block].items()
            if metric["clock"] != "host"}


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def test_same_seed_repeats_simulated_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, first = bench(self.exe, workload, 7)
                _, second = bench(self.exe, workload, 7)
                a, b = deterministic(first), deterministic(second)
                self.assertGreater(len(a), 20)
                self.assertEqual(json.dumps(a), json.dumps(b))

    def check_passes(self, workload):
        code, result = bench(self.exe, workload, 8)
        self.assertEqual(code, 0, result["failures"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_second_seed_passes_every_check(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            listed = [w["name"] for w in json.load(f)["workloads"]]
        for workload in listed:
            with self.subTest(workload=workload):
                self.check_passes(workload)

    @unittest.expectedFailure
    def test_second_seed_passes_every_check_tpcc(self):
        # Known program defect: checkpoint page floods delay transactions'
        # own I/O for seconds, and some transactions time out on locks.
        self.check_passes("tpcc")


if __name__ == "__main__":
    unittest.main()
