#!/usr/bin/env python3
"""Smoke test of the fleet benchmark itself, on tiny fleets.

    python3 perfbench/smoke_test.py

For every workload, run.py must print each metric it promises with its unit
and pass its output checks, and it must report a failure, with a non-zero
exit code, when one node is tampered. A benchmark that silently stopped
checking its outputs fails the second test.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Rows printed beside the end-to-end metrics of BENCHMARK.json.
EXTRA_ROWS = [("sim_cycles", "cycles"), ("ops", "count"),
              ("failed_ops", "count")]
PHASE_ROWS = {"session": ("epoch_s", "s"), "rollout": ("rollout_s", "s"),
              "compute": ("batch_s", "s")}


def run(workload, trace, tamper=0):
    """Runs run.py on a 4-node fleet; returns (exit code, stdout, result)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "0",
           "--trace", str(trace), "--nodes", "4", "--tamper", str(tamper)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.splitlines()
    return proc.returncode, proc.stdout, json.loads(lines[-1])


class BenchmarkSmokeTest(unittest.TestCase):

    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, out, result = run(workload, trace)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"], out)
                    self.assertEqual(result["failed"], 0, out)
                    self.assertGreater(result["attempted"], 0)
                    rows = [(m["name"], m["unit"]) for m in SPEC[kind]]
                    self.assertEqual(
                        result["metrics"],
                        {name: {"value": result["metrics"][name]["value"],
                                "unit": unit} for name, unit in rows})
                    if trace == 0:
                        rows += EXTRA_ROWS + [PHASE_ROWS[workload]]
                    for name, unit in rows:
                        row = rf"^  {re.escape(name)} +\S+ +{re.escape(unit)}"
                        self.assertRegex(out, re.compile(row + r"( |$)",
                                                         re.MULTILINE))

    def test_tampered_node_is_reported(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out, result = run(workload, 0, tamper=1)
                self.assertNotEqual(code, 0, out)
                self.assertFalse(result["correct"], out)
                self.assertGreaterEqual(result["failed"], 1, out)
                self.assertIn("FAILED", out)


if __name__ == "__main__":
    unittest.main()
