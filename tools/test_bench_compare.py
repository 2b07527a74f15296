#!/usr/bin/env python3
"""Tests for bench_compare.py against the checked-in BENCH_*.json files.

Usage: python3 tools/test_bench_compare.py

Every baseline must match itself, and a copy with one pinned field
changed, one compared row dropped, one field missing or one floor missed
must fail.
"""

import copy
import json
import pathlib
import unittest

import bench_compare

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(name):
    with open(ROOT / f"BENCH_{name}.json") as f:
        return json.load(f)


def compared_rows(doc, spec):
    return [r for r in doc["rows"]
            if spec.rows is None or r.get("name") == spec.rows]


class BenchCompareTest(unittest.TestCase):
    def mutants(self):
        """Yields (bench, spec, baseline, fresh copy of the baseline)."""
        for name, spec in bench_compare.SPECS.items():
            base = load(name)
            yield name, spec, base, copy.deepcopy(base)

    def test_every_baseline_matches_itself(self):
        for name, _, base, cur in self.mutants():
            with self.subTest(bench=name):
                self.assertEqual(bench_compare.compare(base, cur), [])

    def test_a_changed_pinned_field_fails(self):
        for name, spec, base, _ in self.mutants():
            for key in spec.pinned:
                with self.subTest(bench=name, key=key):
                    cur = copy.deepcopy(base)
                    row = compared_rows(cur, spec)[-1]
                    row[key] = (row[key] + "x" if isinstance(row[key], str)
                                else row[key] + 1)
                    self.assertTrue(bench_compare.compare(base, cur))

    def test_a_dropped_row_fails(self):
        for name, spec, base, cur in self.mutants():
            with self.subTest(bench=name):
                cur["rows"].remove(compared_rows(cur, spec)[-1])
                self.assertTrue(bench_compare.compare(base, cur))

    def test_a_missing_field_fails(self):
        # An unpinned field, so only the presence check can catch it
        # (p99_ms on the table rows).
        for name, spec, base, cur in self.mutants():
            row = compared_rows(cur, spec)[0]
            key = next(k for k in reversed(row)
                       if k not in spec.pinned and k != "name")
            with self.subTest(bench=name, key=key):
                del row[key]
                self.assertTrue(bench_compare.compare(base, cur))

    def test_a_missed_floor_fails(self):
        floored = 0
        for name, spec, base, _ in self.mutants():
            for value, floor in spec.floors:
                with self.subTest(bench=name, value=value):
                    cur = copy.deepcopy(base)
                    row = compared_rows(cur, spec)[-1]
                    row[value] = row[floor] - 0.5
                    self.assertTrue(bench_compare.compare(base, cur))
                    floored += 1
        self.assertEqual(floored, 2)  # micro and serve

    def test_a_different_bench_fails(self):
        self.assertTrue(bench_compare.compare(load("table1"),
                                              load("table2")))


if __name__ == "__main__":
    unittest.main()
