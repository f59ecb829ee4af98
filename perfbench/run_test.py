#!/usr/bin/env python3
"""Tests of run.py's reduction of an end-to-end run's pooled series.

Run from anywhere:

    python3 perfbench/run_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "read_p50_us", "unit": "us", "better": "lower"},
    {"name": "read_p99_us", "unit": "us", "better": "lower"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
]


def process(series, correct=True, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "series": series}


class SlowDecileTest(unittest.TestCase):
    def test_rate_takes_the_value_nine_of_ten_reach(self):
        self.assertEqual(run.slow_decile(list(range(1, 61)), True), 6)
        self.assertEqual(run.slow_decile(list(range(60, 0, -1)), True), 6)

    def test_latency_takes_the_value_nine_of_ten_stay_within(self):
        self.assertEqual(run.slow_decile(list(range(1, 61)), False), 54)
        self.assertEqual(run.slow_decile([3, 1, 2], False), 3)

    def test_a_whole_rank_is_taken_as_it_is(self):
        # Ten values: 0.9 * 10 is rank 9 exactly, not rank 10.
        self.assertEqual(run.slow_decile(list(range(1, 11)), False), 9)
        self.assertEqual(run.slow_decile(list(range(1, 11)), True), 1)


class CombineTest(unittest.TestCase):
    def test_pools_the_series_of_all_processes(self):
        first = process({"setup_s": [0.3, 0.1], "ops_per_s": [10, 20, 30],
                          "read_p50_us": [1, 2, 3], "read_p99_us": [7, 9],
                          "peak_rss_mb": [12.0]})
        second = process({"setup_s": [0.2], "ops_per_s": [40, 50, 60, 70],
                          "read_p50_us": [4, 5, 6, 7], "read_p99_us": [8],
                          "peak_rss_mb": [15.5]}, attempted=5, failed=0)
        result = run.combine([first, second], END_TO_END)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 15)
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in END_TO_END])
        self.assertEqual(metrics["setup_s"], {"value": 0.2, "unit": "s"})
        # Seven segments: nearest rank 1 of a rate, rank 7 of a latency.
        self.assertEqual(metrics["ops_per_s"]["value"], 10)
        self.assertEqual(metrics["read_p50_us"]["value"], 7)
        self.assertEqual(metrics["read_p99_us"]["value"], 8)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 15.5)

    def test_a_missing_series_makes_the_result_incorrect(self):
        full = {m["name"]: [1.0] for m in END_TO_END}
        partial = dict(full)
        del partial["read_p99_us"]
        result = run.combine([process(full), process(partial)], END_TO_END)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["read_p99_us"]["value"], 1.0)

    def test_a_metric_that_is_not_positive_makes_the_result_incorrect(self):
        series = {m["name"]: [1.0] for m in END_TO_END}
        series["ops_per_s"] = [0.0]
        self.assertFalse(run.combine([process(series)], END_TO_END)["correct"])

    def test_a_failed_process_fails_the_run(self):
        series = {m["name"]: [1.0] for m in END_TO_END}
        result = run.combine(
            [process(series), process(series, correct=False, failed=3)],
            END_TO_END)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 3)


if __name__ == "__main__":
    unittest.main()
