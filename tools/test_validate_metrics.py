#!/usr/bin/env python3
"""Tests for validate_metrics.py's trace-event checks.

Usage: python3 tools/test_validate_metrics.py [TRACE.json]

A trace must validate, and a copy with its spans unbalanced, a negative
timestamp, an event without a tid or another display unit must fail.
The trace is TRACE.json when given (CI passes a `tcemin --trace`
capture), else a small built-in one.
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


def validates(doc):
    """True when validate_metrics accepts \\p doc written to a file."""
    with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
        json.dump(doc, f)
        f.flush()
        try:
            validate_metrics.validate(f.name)
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


if __name__ == "__main__":
    unittest.main()
