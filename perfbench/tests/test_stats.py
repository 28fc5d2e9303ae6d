"""Tests of the benchmark's order statistics and span arithmetic.

    python3 -m unittest discover -s perfbench/tests -t perfbench
"""

import statistics
import unittest

from bench import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_are_those_of_statistics_quantiles(self):
        values = [5.1, 4.8, 5.3, 4.9, 5.0, 5.6, 4.7, 5.2, 5.4, 4.6]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q[0], q[2]))


class Tail(unittest.TestCase):
    def test_nearest_rank_counts_samples_beyond(self):
        ordered = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(ordered, 90), (90, 10))
        self.assertEqual(stats.nearest_rank(ordered, 50), (50, 50))

    def test_highest_percentile_with_ten_beyond(self):
        # 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        self.assertEqual(stats.tail(list(range(1, 101))), (90, 90))
        # 170 samples (the quick suite's cells): p90 leaves 17, p95 8.
        self.assertEqual(stats.tail(list(range(170)))[0], 90)
        # 20 samples (a standard sweep's cells): only the median qualifies.
        self.assertEqual(stats.tail(list(range(1, 21))), (50, 10))
        # 1000 samples: p99 leaves 10.
        self.assertEqual(stats.tail(list(range(1000)))[0], 99)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail(list(range(19))))

    def test_tail_ignores_input_order(self):
        values = [7, 3, 9, 1, 5] * 10
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))


def span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(stats.covered([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(stats.covered([]), 0)
        self.assertEqual(stats.covered([(0, 10), (2, 3)]), 10)

    def test_self_time_subtracts_children_once(self):
        spans = [
            span(1, 0, 0, 100),
            # Two concurrent children overlapping on [30, 40).
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            # A grandchild does not count against the root.
            span(4, 2, 12, 20),
        ]
        own = stats.self_times(spans)
        self.assertEqual(own[1], 100 - 50)
        self.assertEqual(own[2], 30 - 8)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[4], 8)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 10, 20), span(2, 1, 0, 15), span(3, 1, 18, 30)]
        self.assertEqual(stats.self_times(spans)[1], 10 - 5 - 2)


if __name__ == "__main__":
    unittest.main()
