#!/usr/bin/env python3
"""Boundary cases of perfbench/compare.py's verdicts.

  python3 perfbench/test_compare.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

# Ten parent runs: median 100, quartiles 97.75 and 102.25 (by
# statistics.quantiles(n=4)), so an interquartile range of 4.5.
PARENT = [96, 97, 98, 99, 100, 100, 101, 102, 103, 104]


def shifted(values, delta):
    return [v + delta for v in values]


class VerdictTest(unittest.TestCase):
    def test_parent_quartiles(self):
        q1, q3 = compare.quartiles(PARENT)
        self.assertEqual((q1, q3), (97.75, 102.25))

    def test_nine_of_ten_wins_improves(self):
        change = shifted(PARENT, -6)
        change[0] = PARENT[0] + 1  # one pair lost
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1),
                         ("improved", 9))

    def test_eight_of_ten_wins_does_not(self):
        change = shifted(PARENT, -6)
        change[0] = PARENT[0] + 1
        change[1] = PARENT[1] + 1
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1),
                         ("unchanged", 8))

    def test_ties_count_for_neither_side(self):
        change = shifted(PARENT, -6)
        change[0] = PARENT[0]  # tie: 9 wins of 10 pairs
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1)[0],
                         "improved")
        change[1] = PARENT[1]  # two ties: 8 wins
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1)[0],
                         "unchanged")

    def test_median_gap_must_exceed_parent_iqr(self):
        iqr = 102.25 - 97.75
        # Every pair won, but the medians differ by exactly the IQR.
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, -iqr), "lower", 0.1)[0],
            "unchanged")
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, -iqr - 0.01), "lower",
                            0.1)[0],
            "improved")

    def test_higher_is_better(self):
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, 6), "higher", 0.1)[0],
            "improved")
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, -6), "higher", 0.1)[0],
            "unchanged")
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, -11), "higher", 0.1)[0],
            "regressed")

    def test_regression_bound_is_strict(self):
        # Median 100, bound 10%: exactly 110 is allowed, past it is not.
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, 10), "lower", 0.1)[0],
            "unchanged")
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, 10.01), "lower",
                            0.1)[0],
            "regressed")

    def test_spread_wider_than_bound_is_unresolved(self):
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, 1), "lower", 0.04)[0],
            "unresolved")
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, 1), "lower", 0.05)[0],
            "unchanged")

    def test_every_change_run_better_resolves_a_wide_spread(self):
        # Three pairs cannot claim a gain, but every change run beats
        # every parent run, so the wide spread does not leave it open.
        parent, change = [100, 110, 120], [90, 91, 92]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.05)[0],
                         "unchanged")

    def test_fewer_than_ten_pairs_never_improve(self):
        self.assertEqual(
            compare.verdict(PARENT[:9], shifted(PARENT[:9], -20), "lower",
                            0.5)[0],
            "unchanged")

    def test_more_failures_cancel_a_gain(self):
        self.assertEqual(
            compare.verdict(PARENT, shifted(PARENT, -6), "lower", 0.1,
                            change_fails_more=True)[0],
            "unchanged")


def result(latency, failed=0, correct=True):
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {"latency_ms": {"value": latency, "unit": "ms"}}}


BENCH = {"workloads": [{"name": "w", "why": "test"}],
         "end_to_end": [{"name": "latency_ms", "unit": "ms",
                         "better": "lower", "bound": 0.1}]}


class MainTest(unittest.TestCase):
    def run_main(self, parent, change):
        with tempfile.TemporaryDirectory() as tmp:
            for side, values in (("parent", parent), ("change", change)):
                for i, value in enumerate(values):
                    run = os.path.join(tmp, side, f"run-{i:02d}")
                    os.makedirs(run)
                    with open(os.path.join(run, "results.json"), "w") as f:
                        json.dump({"workloads": {"w": value}}, f)
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump(BENCH, f)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return compare.main([os.path.join(tmp, "parent"),
                                     os.path.join(tmp, "change"),
                                     "--benchmark", bench])

    def test_exit_codes(self):
        parent = [result(v) for v in PARENT]
        self.assertEqual(self.run_main(parent, parent), 0)
        self.assertEqual(
            self.run_main(parent, [result(v + 20) for v in PARENT]), 1)
        self.assertEqual(
            self.run_main(parent, [result(v, correct=False)
                                   for v in PARENT]), 1)
        self.assertEqual(self.run_main(parent, []), 2)

    def test_failed_share(self):
        runs = [{"w": result(1, failed=5)}, {"w": result(1, failed=15)}]
        self.assertEqual(compare.failed_share(runs, "w"), 0.01)


if __name__ == "__main__":
    unittest.main()
