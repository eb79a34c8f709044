#!/usr/bin/env python3
"""BENCHMARK.json agrees with the driver, and operation lists depend on the
seed alone.

    python3 perfbench/tests/test_contract.py PERFBENCH_DRIVER

(run by `python3 perfbench/run.py --self-test`).
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
DRIVER = None

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def driver(*args):
    return subprocess.run([DRIVER] + list(args), check=True, capture_output=True,
                          text=True).stdout


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(BENCHMARK_JSON) as f:
            cls.text = f.read()
        cls.bench = json.loads(cls.text)
        cls.catalog = json.loads(driver("--catalog"))

    def test_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        self.assertLessEqual(len(self.text.encode()), 64 * 1024)
        self.assertEqual(self.bench["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.bench["paths"], ["perfbench"])
        seconds = self.bench["run_seconds"]
        self.assertTrue(isinstance(seconds, int) and 1 <= seconds <= 60)

    def test_workloads_match_the_driver(self):
        self.assertEqual(self.bench["workloads"], self.catalog["workloads"])
        self.assertTrue(2 <= len(self.bench["workloads"]) <= 8)
        for w in self.bench["workloads"]:
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics_match_the_driver(self):
        for key in ("end_to_end", "per_layer"):
            listed = [{k: m[k] for k in ("name", "unit", "better")} for m in self.bench[key]]
            self.assertEqual(listed, self.catalog[key], key)
        names = [m["name"] for m in self.bench["end_to_end"] + self.bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.bench["end_to_end"]))

    def test_operation_lists_depend_on_the_seed_alone(self):
        for w in self.bench["workloads"]:
            first = driver("--list-ops", w["name"], "5", "300")
            self.assertEqual(first, driver("--list-ops", w["name"], "5", "300"), w["name"])
            self.assertNotEqual(first, driver("--list-ops", w["name"], "6", "300"), w["name"])
            self.assertEqual(len(first.splitlines()), 300)


if __name__ == "__main__":
    DRIVER = sys.argv.pop(1)
    unittest.main()
