#!/usr/bin/env python3
"""Tests for validate_metrics.py's trace, lint and thread-record checks.

Usage: python3 tools/test_validate_metrics.py [TRACE.json]

A trace must validate, and a copy with its spans unbalanced, a negative
timestamp, an event without a tid or another display unit must fail.
The trace is TRACE.json when given (CI passes a `tcemin --trace`
capture), else a small built-in one.  Built-in `tcemin lint --json`
documents and a planner thread record must validate, and each
corrupted copy of them must fail.
"""

import copy
import json
import sys
import tempfile
import unittest

import validate_metrics

TRACE_PATH = sys.argv.pop(1) if len(sys.argv) > 1 else None

BUILT_IN = {
    "displayTimeUnit": "ms",
    "traceEvents": [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "tcemin (wall clock)"}},
        {"ph": "B", "pid": 1, "tid": 1, "ts": 12, "name": "optimize"},
        {"ph": "X", "pid": 1, "tid": 1, "ts": 40, "dur": 1300,
         "name": "dp.node T1"},
        {"ph": "E", "pid": 1, "tid": 1, "ts": 31250},
        {"ph": "X", "pid": 2, "tid": 1, "ts": 0.0, "dur": 512000.5,
         "name": "T1 rotate step (one of 4)"},
    ],
}


def load_trace():
    if TRACE_PATH is None:
        return copy.deepcopy(BUILT_IN)
    with open(TRACE_PATH) as f:
        return json.load(f)


def validates(doc, threads=None):
    """True when validate_metrics accepts \\p doc written to a file."""
    with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
        json.dump(doc, f)
        f.flush()
        try:
            validate_metrics.validate(f.name, threads)
        except SystemExit:
            return False
    return True


def first_index(doc, ph):
    return next(i for i, e in enumerate(doc["traceEvents"])
                if e.get("ph") == ph)


class TraceValidationTest(unittest.TestCase):
    def test_trace_validates(self):
        self.assertTrue(validates(load_trace()))

    def test_dropped_end_is_unbalanced(self):
        doc = load_trace()
        del doc["traceEvents"][first_index(doc, "E")]
        self.assertFalse(validates(doc))

    def test_end_before_begin_is_unbalanced(self):
        doc = load_trace()
        events = doc["traceEvents"]
        end = events.pop(first_index(doc, "E"))
        events.insert(first_index(doc, "B"), end)
        self.assertFalse(validates(doc))

    def test_negative_timestamp_fails(self):
        doc = load_trace()
        doc["traceEvents"][first_index(doc, "X")]["ts"] = -1
        self.assertFalse(validates(doc))

    def test_negative_duration_fails(self):
        doc = load_trace()
        doc["traceEvents"][first_index(doc, "X")]["dur"] = -0.5
        self.assertFalse(validates(doc))

    def test_event_without_tid_fails(self):
        doc = load_trace()
        del doc["traceEvents"][first_index(doc, "X")]["tid"]
        self.assertFalse(validates(doc))

    def test_other_display_unit_fails(self):
        doc = load_trace()
        doc["displayTimeUnit"] = "ns"
        self.assertFalse(validates(doc))


LINT_OK = {
    "schema": "tce-lint/1", "ok": True, "rules_checked": 81,
    "diagnostics": [
        {"severity": "info", "node": "S", "rule": "comm.lb-certificate",
         "message": "certified communication lower bound"}],
    "comm_certificates": [
        {"rule": "comm.lb-certificate", "root": "S",
         "comm_lb_words": 238878720, "nodes": []}],
}

LINT_INFEASIBLE = {
    "schema": "tce-lint/1", "ok": False, "rules_checked": 29,
    "diagnostics": [
        {"severity": "error", "node": "S", "rule": "mem.infeasible",
         "message": "no plan can satisfy the memory limit"}],
    "mem_certificate": {"rule": "mem.infeasible", "node": "S",
                        "lower_bound_node_bytes": 201326592,
                        "mem_limit_node_bytes": 100000000},
}


class LintValidationTest(unittest.TestCase):
    def test_documents_validate(self):
        self.assertTrue(validates(LINT_OK))
        self.assertTrue(validates(LINT_INFEASIBLE))

    def test_ok_contradicting_the_diagnostics_fails(self):
        for good in (LINT_OK, LINT_INFEASIBLE):
            doc = copy.deepcopy(good)
            doc["ok"] = not doc["ok"]
            self.assertFalse(validates(doc))

    def test_rule_without_family_fails(self):
        doc = copy.deepcopy(LINT_OK)
        doc["diagnostics"][0]["rule"] = "lb-certificate"
        self.assertFalse(validates(doc))

    def test_unknown_severity_fails(self):
        doc = copy.deepcopy(LINT_INFEASIBLE)
        doc["diagnostics"][0]["severity"] = "fatal"
        self.assertFalse(validates(doc))

    def test_certificate_without_its_diagnostic_fails(self):
        doc = copy.deepcopy(LINT_INFEASIBLE)
        doc["diagnostics"][0]["rule"] = "mem.other"
        self.assertFalse(validates(doc))

    def test_certificate_with_another_rule_fails(self):
        doc = copy.deepcopy(LINT_INFEASIBLE)
        doc["mem_certificate"]["rule"] = "mem.other"
        self.assertFalse(validates(doc))

    def test_fractional_comm_bound_fails(self):
        doc = copy.deepcopy(LINT_OK)
        doc["comm_certificates"][0]["comm_lb_words"] = 2.5
        self.assertFalse(validates(doc))


THREAD_RECORD = {
    "schema": "tce-bench/1", "bench": "pruning",
    "rows": [{"scenario": "paper", "opt_wall_ms": 10.5, "threads": 8,
              "p50_ms": 10.3, "p99_ms": 10.3},
             {"scenario": "paper", "opt_wall_ms": 0.0, "threads": 8}],
    "metrics": {"opt.candidates": 17680, "opt.kept": 874},
}


class ThreadRecordTest(unittest.TestCase):
    def test_record_validates(self):
        self.assertTrue(validates(THREAD_RECORD, threads=8))

    def test_other_thread_count_fails(self):
        self.assertFalse(validates(THREAD_RECORD, threads=1))

    def test_row_without_threads_fails(self):
        doc = copy.deepcopy(THREAD_RECORD)
        del doc["rows"][1]["threads"]
        self.assertFalse(validates(doc, threads=8))

    def test_negative_wall_time_fails(self):
        doc = copy.deepcopy(THREAD_RECORD)
        doc["rows"][0]["opt_wall_ms"] = -1
        self.assertFalse(validates(doc, threads=8))


if __name__ == "__main__":
    unittest.main()
