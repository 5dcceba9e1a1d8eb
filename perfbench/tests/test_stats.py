"""Arithmetic of stats.py: percentiles, refusal, failures, self time."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100; input order must not matter
        values.reverse()
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.9), 90)
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2)

    def test_refuses_tail_with_fewer_than_ten_beyond(self):
        values = [float(i) for i in range(1000)]
        # p99 of 1000 is rank 990: exactly 10 beyond.
        self.assertEqual(stats.percentile(values, 0.99), 989.0)
        with self.assertRaises(stats.Refused):
            stats.percentile(values[:999], 0.99)  # 9 beyond
        with self.assertRaises(stats.Refused):
            stats.percentile(values, 0.999)  # 1 beyond
        # p90 of 100 samples has 10 beyond; of 99 only 9.
        self.assertEqual(stats.percentile(values[:100], 0.9), 89.0)
        with self.assertRaises(stats.Refused):
            stats.percentile(values[:99], 0.9)

    def test_median_is_always_given(self):
        self.assertEqual(stats.median([7.0]), 7.0)
        with self.assertRaises(stats.Refused):
            stats.median([])

    def test_failed_operations_miss_every_limit(self):
        values = [1.0] * 990
        # Ten failures sit above every measured value, so p99 of the 1000
        # attempts is still measured; a few more and it lands on a failure.
        self.assertEqual(stats.percentile(values, 0.99, failed=10), 1.0)
        with self.assertRaises(stats.Refused):
            stats.percentile(values, 0.99, failed=11)
        # Failures move the median up the measured values.
        self.assertEqual(stats.percentile([1.0, 2.0, 3.0], 0.5, failed=2), 3.0)

    def test_summary_names_highest_supported_tail(self):
        values = [float(i) for i in range(1000)]
        self.assertEqual(stats.summarize(values), (499.0, 0.99, 989.0, 1000))
        self.assertEqual(stats.summarize(values[:100]), (49.0, 0.9, 89.0, 100))
        self.assertEqual(stats.summarize([1.0, 2.0, 3.0]), (2.0, None, None, 3))
        self.assertEqual(stats.summarize(values[:990], failed=10)[1:3],
                         (0.99, 989.0))
        # p99 would land on a failure, so the summary falls back to p90.
        self.assertEqual(stats.summarize(values[:989], failed=11)[1:3],
                         (0.9, 899.0))


class FailedFractionTest(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(stats.failed_fraction(200, 0), 0.0)
        self.assertEqual(stats.failed_fraction(200, 5), 0.025)
        self.assertEqual(stats.failed_fraction(4, 4), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(stats.Refused):
                stats.failed_fraction(attempted, failed)


def span(lane, index, parent, start, end, name="s"):
    return [lane, index, parent, name, start, end, 0, "workload"]


class SelfTimeTest(unittest.TestCase):
    def test_leaf_and_root(self):
        spans = [span(0, 0, -1, 0, 100), span(0, 1, 0, 10, 30),
                 span(0, 2, 0, 40, 90)]
        self.assertEqual(stats.self_times(spans), [30, 20, 50])

    def test_nested_children_count_once_per_level(self):
        spans = [span(0, 0, -1, 0, 100), span(0, 1, 0, 0, 60),
                 span(0, 2, 1, 10, 20), span(0, 3, 1, 30, 60)]
        # Root: 100 - 60; child 1: 60 - (10 + 30); grandchildren: leaves.
        self.assertEqual(stats.self_times(spans), [40, 20, 10, 30])

    def test_overlapping_and_protruding_children(self):
        spans = [span(0, 0, -1, 100, 200), span(0, 1, 0, 90, 130),
                 span(0, 2, 0, 120, 150), span(0, 3, 0, 190, 260)]
        # Covered: [100, 150) and [190, 200) = 60 of the root's 100.
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_lanes_are_separate(self):
        spans = [span(0, 0, -1, 0, 100), span(1, 0, -1, 0, 50),
                 span(1, 1, 0, 0, 50)]
        self.assertEqual(stats.self_times(spans), [100, 0, 50])

    def test_self_times_sum_to_root_duration(self):
        spans = [span(0, 0, -1, 0, 1000), span(0, 1, 0, 100, 400),
                 span(0, 2, 1, 150, 250), span(0, 3, 0, 500, 900)]
        self.assertEqual(sum(stats.self_times(spans)), 1000)


if __name__ == "__main__":
    unittest.main()
