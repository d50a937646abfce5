"""Tests for the A/B comparator: python3 -m unittest discover perfbench"""

import copy
import json
import os
import unittest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def load_fixture():
    """Ten untraced runs of every workload, recorded on one machine."""
    with open(compare.SPEC) as f:
        spec = json.load(f)
    return spec, compare.load_records(os.path.join(HERE, "testdata", "runs.jsonl"))


def scaled(recs, workload, metric, factor):
    out = copy.deepcopy(recs)
    for r in out:
        if r["workload"] == workload:
            r["metrics"][metric]["value"] *= factor
    return out


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.spec, self.recs = load_fixture()
        self.assertTrue(self.recs, "fixture has no run records")

    def test_identical_sets_are_no_worse(self):
        results = compare.compare(self.recs, copy.deepcopy(self.recs), self.spec)
        self.assertEqual(len(results), len(self.spec["workloads"]) * len(self.spec["end_to_end"]))
        for key, r in results.items():
            self.assertEqual(r["verdict"], "no worse", key)

    def test_twenty_percent_slowdown_is_worse(self):
        change = scaled(self.recs, "saturated", "sim_cycles_per_s", 0.8)
        results = compare.compare(self.recs, change, self.spec)
        self.assertEqual(results[("saturated", "sim_cycles_per_s")]["verdict"], "worse")
        self.assertEqual(results[("saturated", "sim_cycles_per_s")]["win_share"], 0)
        self.assertEqual(results[("standby", "sim_cycles_per_s")]["verdict"], "no worse")

    def test_same_code_ab_is_never_worse(self):
        parent = compare.load_records(os.path.join(HERE, "testdata", "ab-parent.jsonl"))
        change = compare.load_records(os.path.join(HERE, "testdata", "ab-change.jsonl"))
        results = compare.compare(parent, change, self.spec)
        self.assertEqual(len(results), len(self.spec["workloads"]) * len(self.spec["end_to_end"]))
        for key, r in results.items():
            self.assertIn(r["verdict"], ("no worse", "unresolved"), key)

    def test_clear_speedup_is_better(self):
        change = scaled(self.recs, "saturated", "cpu_ns_per_cycle", 0.7)
        results = compare.compare(self.recs, change, self.spec)
        self.assertEqual(results[("saturated", "cpu_ns_per_cycle")]["verdict"], "better")

    def test_regression_wider_than_spread_is_worse(self):
        parent = [1.0, 1.5, 2.0, 2.5, 3.0]
        change = [1.3 * x for x in parent]
        r = compare.verdict(parent, change, list(zip(parent, change)), "lower", 0.1)
        self.assertGreater(r["spread"], 0.1)
        self.assertEqual(r["verdict"], "worse")

    def test_other_run_length_is_refused(self):
        change = copy.deepcopy(self.recs)
        change[0]["seconds"] += 1
        with self.assertRaises(ValueError):
            compare.compare(self.recs, change, self.spec)

    def test_wide_spread_is_unresolved(self):
        parent = [1.0, 1.5, 2.0, 2.5, 3.0]
        change = [1.1, 1.6, 2.1, 2.6, 3.1]
        r = compare.verdict(parent, change, list(zip(parent, change)), "lower", 0.1)
        self.assertEqual(r["verdict"], "unresolved")


if __name__ == "__main__":
    unittest.main()
