#!/usr/bin/env python3
"""Compare benchmark runs of two commits, metric by metric.

  python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds results.json files written by
`perfbench/run.py --out DIR` (searched recursively; sorted by path, the
i-th parent run pairs with the i-th change run, so run the two commits
alternately). For every workload and end-to-end metric of
BENCHMARK.json it reports one verdict:

  improved    at least 10 pairs; the change is better in at least 9 of
              every 10 pairs (ties count for neither side); the medians
              differ by more than the parent's interquartile range; and
              the change fails no larger share of operations;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound (a share of the parent median);
  unresolved  neither, and the parent's own spread (interquartile range
              over median) is wider than the bound, unless every change
              run is better than every parent run;
  unchanged   otherwise.

It also prints each side's failed share (failed / attempted operations)
and exits 1 when a metric regressed or a run was incorrect, 2 on
unreadable input, else 0.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


class InputError(Exception):
    pass


def load_runs(directory):
    """Every results.json below @directory, in path order."""
    paths = []
    for root, _, files in os.walk(directory):
        if "results.json" in files:
            paths.append(os.path.join(root, "results.json"))
    if not paths:
        raise InputError(f"no results.json under {directory}")
    runs = []
    for path in sorted(paths):
        try:
            with open(path) as f:
                runs.append(json.load(f)["workloads"])
        except (OSError, ValueError, KeyError) as e:
            raise InputError(f"{path}: {e}") from e
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, change_fails_more=False):
    """Classify one (workload, metric) — see the module docstring.
    Returns (verdict, pairs the change won)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med = statistics.median(parent)
    gain = sign * (statistics.median(change) - p_med)
    q1, q3 = quartiles(parent)
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and gain > q3 - q1 and not change_fails_more):
        return "improved", wins
    if -gain > bound * abs(p_med):
        return "regressed", wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if q3 - q1 > bound * abs(p_med) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def failed_share(runs, workload):
    attempted = sum(r[workload]["attempted"] for r in runs)
    failed = sum(r[workload]["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def compare(parent_runs, change_runs, bench):
    """Rows of (workload, metric, parent median, change median, wins,
    pairs, verdict), plus per-workload failure and correctness."""
    rows, health = [], {}
    for workload in (w["name"] for w in bench["workloads"]):
        p_runs = [r for r in parent_runs if workload in r]
        c_runs = [r for r in change_runs if workload in r]
        if not p_runs or not c_runs:
            continue
        try:
            p_fail = failed_share(p_runs, workload)
            c_fail = failed_share(c_runs, workload)
            correct = all(r[workload]["correct"] for r in p_runs + c_runs)
            health[workload] = (p_fail, c_fail, correct)
            for metric in bench["end_to_end"]:
                name = metric["name"]
                parent = [r[workload]["metrics"][name]["value"]
                          for r in p_runs]
                change = [r[workload]["metrics"][name]["value"]
                          for r in c_runs]
                label, wins = verdict(parent, change, metric["better"],
                                      metric["bound"], c_fail > p_fail)
                rows.append((workload, name, statistics.median(parent),
                             statistics.median(change), wins,
                             min(len(parent), len(change)), label))
        except (KeyError, TypeError) as e:
            raise InputError(f"{workload}: missing {e}") from e
    if not rows:
        raise InputError("the two sides share no workload")
    return rows, health


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare benchmark runs of two commits.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args(argv)
    try:
        with open(args.benchmark) as f:
            bench = json.load(f)
        rows, health = compare(load_runs(args.parent),
                               load_runs(args.change), bench)
    except (InputError, OSError, ValueError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2

    print(f"{'workload':20} {'metric':18} {'parent':>14} {'change':>14} "
          f"{'wins':>7}  verdict")
    for workload, name, p_med, c_med, wins, pairs, v in rows:
        print(f"{workload:20} {name:18} {p_med:14.6g} {c_med:14.6g} "
              f"{wins:>3}/{pairs:<3}  {v}")
    ok = all(v != "regressed" for *_, v in rows)
    for workload, (p_fail, c_fail, correct) in health.items():
        print(f"{workload}: failed share parent {p_fail:.6f}, "
              f"change {c_fail:.6f}"
              + ("" if correct else "; INCORRECT RUN"))
        ok = ok and correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
