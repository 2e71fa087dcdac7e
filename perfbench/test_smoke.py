#!/usr/bin/env python3
"""Self-test of the viaduct benchmark, on the reduced (--smoke) workloads.

    python3 perfbench/test_smoke.py

Checks that every metric is printed with its unit, end-to-end and per
layer, and that a deliberately perturbed reference value makes the output
check fail. Takes about a minute after the first build.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The end-to-end metrics under the names each workload's report lines use.
NAMED_LINES = {
    "fig_stress": ["setup_s", "solve_s", "peak_rss_mb", "failed_op_share"],
    "pg1_char": ["setup_s", "analyze_s", "warm_analyze_s", "peak_rss_mb", "failed_op_share"],
    "pg5_mc": ["setup_s", "analyze_s", "peak_rss_mb", "failed_op_share"],
}
LINE = re.compile(r"^(?P<name>[\w.]+) = (?P<value>[-+0-9.eE]+) (?P<unit>[\w/%.-]+)")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s failed:\n%s" % (" ".join(cmd), done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for metric in declared:
            self.assertIn(metric["name"], result["metrics"])
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])

    def test_end_to_end_metrics_printed_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = run(workload, 0)
                self.check_result(result, SPEC["end_to_end"])
                printed = {m.group("name"): m.group("unit")
                           for m in map(LINE.match, lines) if m}
                for name in NAMED_LINES[workload]:
                    self.assertIn(name, printed, "%s: no '%s = <value> <unit>' line" %
                                  (workload, name))

    def test_per_layer_metrics_printed_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = run(workload, 1)
                self.check_result(result, SPEC["per_layer"])
                coverage = result["metrics"]["bench.span_coverage"]["value"]
                self.assertGreater(coverage, 0.0)

    def test_perturbed_reference_fails_the_output_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(workload, 0, "--perturb-reference")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
