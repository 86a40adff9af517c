#!/usr/bin/env python3
"""Tests of BENCHMARK.json's shape and of run.py's report validation.

    python3 perfbench/test_run.py
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def test_top_level_keys(self):
        spec = load()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        spec = load()
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in load()["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))


class Validate(unittest.TestCase):
    def setUp(self):
        self.expected = run.expected_metrics(load(), 0)
        self.report = {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u} for n, u in self.expected.items()},
        }

    def test_valid_report(self):
        self.assertEqual(run.validate(self.report, self.expected, 0), [])

    def test_missing_metric(self):
        del self.report["metrics"]["setup_s"]
        self.assertTrue(run.validate(self.report, self.expected, 0))

    def test_wrong_unit(self):
        self.report["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.validate(self.report, self.expected, 0))

    def test_zero_end_to_end_value(self):
        self.report["metrics"]["run_wall_s"]["value"] = 0.0
        self.assertTrue(run.validate(self.report, self.expected, 0))

    def test_zero_per_layer_value_is_allowed(self):
        expected = run.expected_metrics(load(), 1)
        report = dict(self.report, metrics={n: {"value": 0.0, "unit": u}
                                            for n, u in expected.items()})
        self.assertEqual(run.validate(report, expected, 1), [])

    def test_nothing_attempted(self):
        self.report["attempted"] = 0
        self.assertTrue(run.validate(self.report, self.expected, 0))


if __name__ == "__main__":
    unittest.main()
