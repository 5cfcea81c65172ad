"""Tests for the benchmark's own arithmetic and definitions.

Run from the repository root:

    python3 -m unittest discover -s perfbench
"""

import json
import math
import unittest
from pathlib import Path

import perfstats as ps

HERE = Path(__file__).resolve().parent


def req(due, send, done, status="ok", correct=True):
    return {"due": due, "send": send, "done": done, "status": status,
            "correct": correct}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100, shuffled order irrelevant
        self.assertEqual(ps.percentile(values[::-1], 50), 50)
        self.assertEqual(ps.percentile(values, 90), 90)
        self.assertEqual(ps.percentile(values, 99), 99)
        self.assertEqual(ps.percentile([7.0], 99), 7.0)

    def test_samples_beyond(self):
        self.assertEqual(ps.beyond(90, 100), 10)
        self.assertEqual(ps.beyond(99, 100), 1)
        self.assertEqual(ps.beyond(99, 1000), 10)
        self.assertEqual(ps.beyond(99, 999), 9)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(ps.highest_supported(1000), 99.0)
        self.assertEqual(ps.highest_supported(999), 95.0)
        self.assertEqual(ps.highest_supported(100), 90.0)
        self.assertEqual(ps.highest_supported(99), 75.0)
        self.assertEqual(ps.highest_supported(20), 50.0)
        self.assertIsNone(ps.highest_supported(19))
        self.assertIsNone(ps.highest_supported(0))

    def test_failures_sort_last(self):
        self.assertEqual(ps.percentile([1.0, math.inf, 2.0], 99), math.inf)
        self.assertEqual(ps.percentile([1.0, math.inf, 2.0], 50), 2.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            ps.percentile([], 50)


class OpenLoopTest(unittest.TestCase):
    # Due every 100 ms; the generator stalls on the second send, so the
    # second and third requests go out late.
    SCHEDULE = [
        req(due=0.0, send=0.0, done=0.05),
        req(due=0.1, send=0.25, done=0.30),
        req(due=0.2, send=0.26, done=0.31),
    ]

    def test_latency_counts_from_due_time(self):
        lat = ps.latencies_ms(self.SCHEDULE)
        for got, want in zip(lat, [50.0, 200.0, 110.0]):
            self.assertAlmostEqual(got, want)

    def test_send_time_would_hide_the_stall(self):
        for got in ps.call_ms(self.SCHEDULE):
            self.assertAlmostEqual(got, 50.0)

    def test_generator_lateness(self):
        for got, want in zip(ps.lateness_ms(self.SCHEDULE), [0, 150, 60]):
            self.assertAlmostEqual(got, want)

    def test_failed_request_misses_every_limit(self):
        recs = self.SCHEDULE + [req(0.3, 0.3, 0.31, status="overloaded",
                                    correct=False)]
        lat = ps.latencies_ms(recs)
        self.assertEqual(lat[-1], math.inf)
        self.assertEqual(ps.percentile(lat, 99), math.inf)

    def test_throughput_counts_verified_completions_only(self):
        recs = self.SCHEDULE + [req(0.3, 0.3, 0.4, correct=False)]
        self.assertAlmostEqual(ps.completed_per_second(recs, 0.0, 0.5), 6.0)


class FailRatioTest(unittest.TestCase):
    def test_mixed_refusals_and_mismatches(self):
        recs = [
            req(0, 0, 1),
            req(0, 0, 1),
            req(0, 0, 1, correct=False),              # wrong result
            req(0, 0, 0, status="overloaded", correct=False),
            req(0, 0, 2, status="timeout", correct=False),
            req(0, 0, 1, status="internal", correct=False),
            {"send": 0, "done": 1, "correct": True},  # a power() call
            {"send": 0, "done": 1, "correct": False},
        ]
        attempted, failed, breakdown = ps.fail_counts(recs)
        self.assertEqual(attempted, 8)
        self.assertEqual(failed, 5)
        self.assertEqual(breakdown, {"error": 1, "overloaded": 1,
                                     "timeout": 1, "wrong": 2})

    def test_all_correct(self):
        self.assertEqual(ps.fail_counts([req(0, 0, 1)] * 4)[:2], (4, 0))


class SpreadTest(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        # statistics.quantiles (exclusive method) on 1..9: 2.5, 5, 7.5.
        self.assertAlmostEqual(ps.spread(list(range(1, 10))), 1.0)
        self.assertAlmostEqual(ps.spread([10.0] * 10), 0.0)


class DefinitionsTest(unittest.TestCase):
    def test_stands_for_names_end_to_end_metrics(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        defs = json.loads((HERE / "workloads.json").read_text())
        e2e = {m["name"] for m in bench["end_to_end"]}
        for w in defs["workloads"].values():
            self.assertLessEqual(set(w["stands_for"]), e2e)


if __name__ == "__main__":
    unittest.main()
