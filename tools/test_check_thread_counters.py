#!/usr/bin/env python3
"""Tests for check_thread_counters.py.

Usage: python3 tools/test_check_thread_counters.py

Two pruning documents with equal counters and plans must pass, and a
copy with one counter, `max_per_node` or `comm_s` changed or missing, a
scenario dropped or reordered, or no rows at all must fail.
"""

import copy
import unittest

import check_thread_counters

ROWS = [
    {"scenario": "paper, 64 procs, 4 GB", "candidates": 9000,
     "infeasible": 100, "dominated": 6000, "bounded": 2000, "kept": 900,
     "max_per_node": 400, "comm_s": 1311.5797606961438,
     "opt_wall_ms": 4.0, "threads": 1},
    {"scenario": "paper, 16 procs, unlimited", "candidates": 7000,
     "infeasible": 0, "dominated": 5000, "bounded": 1500, "kept": 500,
     "max_per_node": 250, "comm_s": 190.2191734265041,
     "opt_wall_ms": 3.0, "threads": 1},
]

FIELDS = check_thread_counters.COUNTERS + check_thread_counters.PLAN


def pair():
    """One 1-thread document and an equal 8-thread one."""
    one = {"schema": "tce-bench/1", "bench": "pruning",
           "rows": copy.deepcopy(ROWS)}
    many = copy.deepcopy(one)
    for row in many["rows"]:
        row["threads"] = 8
        row["opt_wall_ms"] /= 2
    return one, many


class CheckThreadCountersTest(unittest.TestCase):
    def test_equal_counters_pass(self):
        self.assertEqual(check_thread_counters.compare(*pair()), [])

    def test_a_changed_field_fails(self):
        for key in FIELDS:
            with self.subTest(key=key):
                one, many = pair()
                many["rows"][-1][key] += 1
                self.assertTrue(check_thread_counters.compare(one, many))

    def test_comm_s_is_compared_exactly(self):
        one, many = pair()
        comm = many["rows"][0]["comm_s"]
        many["rows"][0]["comm_s"] = comm + comm * 2.0 ** -52
        self.assertNotEqual(many["rows"][0]["comm_s"], comm)
        self.assertTrue(check_thread_counters.compare(one, many))

    def test_a_missing_field_fails(self):
        for key in FIELDS:
            for side in (0, 1):
                with self.subTest(key=key, side=side):
                    docs = pair()
                    del docs[side]["rows"][0][key]
                    self.assertTrue(check_thread_counters.compare(*docs))

    def test_a_dropped_scenario_fails(self):
        one, many = pair()
        many["rows"].pop()
        self.assertTrue(check_thread_counters.compare(one, many))

    def test_reordered_scenarios_fail(self):
        one, many = pair()
        many["rows"].reverse()
        self.assertTrue(check_thread_counters.compare(one, many))

    def test_no_rows_fails(self):
        one, many = pair()
        one["rows"] = many["rows"] = []
        self.assertTrue(check_thread_counters.compare(one, many))


if __name__ == "__main__":
    unittest.main()
