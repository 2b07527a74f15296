#!/usr/bin/env python3
"""Tests for serve_smoke.py's reply checks.

Usage: python3 tools/test_serve_smoke.py

A well-formed exchange (cold miss, renamed hit, /metrics scrape) must
pass, and each corrupted copy of it must fail.
"""

import copy
import unittest

import serve_smoke

COLD = {"schema": "tce-serve/1", "ok": True, "op": "plan", "id": "q1",
        "cache": "miss", "key": "9f2c",
        "plan": {"steps": [{"result": "T"}]}}
HOT = {"schema": "tce-serve/1", "ok": True, "op": "plan", "id": "q2",
       "cache": "hit", "key": "9f2c",
       "plan": {"steps": [{"result": "T2"}]}}
METRICS = ("# HELP tce_serve_cache_hit_total serve.cache.hit\n"
           "# TYPE tce_serve_cache_hit_total counter\n"
           "tce_serve_cache_hit_total 1\n"
           "# HELP tce_serve_cache_miss_total serve.cache.miss\n"
           "# TYPE tce_serve_cache_miss_total counter\n"
           "tce_serve_cache_miss_total 1\n")


def passes(cold, hot, metrics):
    try:
        serve_smoke.check_exchange(cold, hot, metrics)
    except SystemExit:
        return False
    return True


class ServeSmokeTest(unittest.TestCase):
    def test_exchange_passes(self):
        self.assertTrue(passes(COLD, HOT, METRICS))

    def test_cold_hit_fails(self):
        cold = copy.deepcopy(COLD)
        cold["cache"] = "hit"
        self.assertFalse(passes(cold, HOT, METRICS))

    def test_renamed_miss_fails(self):
        hot = copy.deepcopy(HOT)
        hot["cache"] = "miss"
        self.assertFalse(passes(COLD, hot, METRICS))

    def test_failed_reply_fails(self):
        hot = copy.deepcopy(HOT)
        hot["ok"] = False
        self.assertFalse(passes(COLD, hot, METRICS))

    def test_other_key_fails(self):
        hot = copy.deepcopy(HOT)
        hot["key"] = "0000"
        self.assertFalse(passes(COLD, hot, METRICS))

    def test_unrenamed_plan_fails(self):
        hot = copy.deepcopy(HOT)
        hot["plan"] = COLD["plan"]
        self.assertFalse(passes(COLD, hot, METRICS))

    def test_miscounted_scrape_fails(self):
        for good, bad in (("hit_total 1", "hit_total 0"),
                          ("miss_total 1", "miss_total 2")):
            self.assertFalse(passes(COLD, HOT, METRICS.replace(good, bad)))


if __name__ == "__main__":
    unittest.main()
