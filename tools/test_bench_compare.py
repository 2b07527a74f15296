#!/usr/bin/env python3
"""Tests for bench_compare.py.

Usage: python3 tools/test_bench_compare.py

Each spec is tried on a baseline: the checked-in BENCH_*.json file of
its bench or, for `pruning`, whose CI baseline is a fresh 1-thread run,
the two-scenario document PRUNING.  Every baseline must match itself,
and a copy with one pinned field changed, one compared row dropped or
the rows reordered, one field missing on either side, no rows or one
floor missed must fail.
"""

import copy
import json
import math
import pathlib
import unittest

import bench_compare

ROOT = pathlib.Path(__file__).resolve().parent.parent

PRUNING = {"schema": "tce-bench/1", "bench": "pruning", "rows": [
    {"scenario": "paper, 64 procs, 4 GB", "procs": 64,
     "mem_limit_bytes": 4000000000, "replication": False,
     "candidates": 17680, "infeasible": 1048, "dominated": 6138,
     "bounded": 9808, "kept": 686, "max_per_node": 575, "search_ms": 5.6,
     "opt_wall_ms": 5.6, "threads": 1, "comm_s": 97.27748780562138,
     "p50_ms": 5.5, "p99_ms": 5.5},
    {"scenario": "paper, 16 procs, unlimited", "procs": 16,
     "mem_limit_bytes": 0, "replication": False, "candidates": 25808,
     "infeasible": 0, "dominated": 12830, "bounded": 12240, "kept": 738,
     "max_per_node": 618, "search_ms": 7.3, "opt_wall_ms": 7.3,
     "threads": 1, "comm_s": 190.1970609227551, "p50_ms": 7.2,
     "p99_ms": 7.2},
], "metrics": {}}


def load(name):
    if name == "pruning":
        return copy.deepcopy(PRUNING)
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

    def test_comm_s_is_compared_exactly(self):
        base = load("pruning")
        cur = copy.deepcopy(base)
        row = cur["rows"][0]
        row["comm_s"] = math.nextafter(row["comm_s"], math.inf)
        self.assertTrue(bench_compare.compare(base, cur))

    def test_pruning_ignores_thread_count_and_wall_times(self):
        base = load("pruning")
        cur = copy.deepcopy(base)
        for row in cur["rows"]:
            row["threads"] = 8
            for key in ("search_ms", "opt_wall_ms", "p50_ms", "p99_ms"):
                row[key] /= 2
        self.assertEqual(bench_compare.compare(base, cur), [])

    def test_a_dropped_row_fails(self):
        for name, spec, base, cur in self.mutants():
            with self.subTest(bench=name):
                cur["rows"].remove(compared_rows(cur, spec)[-1])
                self.assertTrue(bench_compare.compare(base, cur))

    def test_reordered_rows_fail(self):
        for name, spec, base, cur in self.mutants():
            rows = compared_rows(cur, spec)
            if len(rows) < 2:
                continue
            with self.subTest(bench=name):
                cur["rows"] = rows[::-1]
                self.assertTrue(bench_compare.compare(base, cur))

    def test_no_rows_fails(self):
        for name, _, base, cur in self.mutants():
            with self.subTest(bench=name):
                base["rows"] = cur["rows"] = []
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

    def test_a_missing_pinned_field_is_listed_on_either_side(self):
        # A baseline row without a pinned field is a listed mismatch,
        # not a KeyError.
        for name, spec, base, _ in self.mutants():
            for key in spec.pinned:
                for side in ("baseline", "current"):
                    with self.subTest(bench=name, key=key, side=side):
                        docs = {"baseline": copy.deepcopy(base),
                                "current": copy.deepcopy(base)}
                        del compared_rows(docs[side], spec)[0][key]
                        errors = bench_compare.compare(docs["baseline"],
                                                       docs["current"])
                        self.assertTrue(any(f"{key} missing" in e
                                            for e in errors), errors)

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
