#!/usr/bin/env python3
"""Gate bench throughput/latency against a committed baseline.

Two bench JSON dialects are understood, told apart by the ``bench``
field; baseline and fresh file must be the same dialect:

``fleet_tails_huge`` — produced by ``bench_fleet_tails --huge
[--smoke] --json <path>``: a ``cells`` array keyed by (services,
hosts, policy, mix) carrying ``events_per_s``. The ``mix`` field tags
the scenario family ("mixed" for the scale plan,
"ycsb+daemons+hostloss" for the conformance cell); cells written
before the field existed default to "mixed". A cell regresses when
its fresh ``events_per_s`` drops more than the threshold (default
20%) below the baseline's.

``serving`` — produced by ``bench_serving [--smoke] --json <path>``:
a ``cells`` array keyed by (sessions, clients, mode) carrying
``lookups_per_s`` and ``p99_ns``. A cell regresses when its fresh
``lookups_per_s`` drops more than the threshold (default 50%) below
the baseline's, or its fresh ``p99_ns`` rises more than
``--p99-threshold`` (default 3.0, i.e. 4x) above it. The serving
defaults are looser than the fleet ones on purpose: sub-microsecond
round-trip times are far more sensitive to the host (frequency
scaling, noisy neighbors) than the fleet sweep's aggregate event
rate, and the gate exists to catch algorithmic cliffs — a lock
serializing the lookup path, an allocation sneaking back into the
codec — not machine-to-machine noise.

In both dialects the committed baseline (BENCH_fleet.json /
BENCH_serving.json at the repo root) comes from the full run; CI
produces a fresh ``--smoke`` file on every push. The plans
deliberately overlap on a subset of cells so a smoke run is
comparable against the full-run baseline.

Exit status: 0 when every comparable cell passes, 1 when any cell
regresses, 2 on malformed input, mismatched dialects or no comparable
cells.
"""

import argparse
import json
import sys


def die(message):
    """Report a usage/input error with the documented exit status 2
    (sys.exit(str) would exit 1, conflating bad input with a real
    regression)."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def read_doc(path):
    """Load one bench JSON; return (dialect, cells-by-identity-key)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        die(f"cannot read {path}: {err}")
    bench = doc.get("bench")
    if bench not in ("fleet_tails_huge", "serving") or "cells" not in doc:
        die(f"{path} is not a fleet_tails --huge or serving bench JSON")
    cells = {}
    for cell in doc["cells"]:
        try:
            if bench == "fleet_tails_huge":
                key = (int(cell["services"]), int(cell["hosts"]),
                       str(cell["policy"]),
                       str(cell.get("mix", "mixed")))
                cells[key] = {"rate": float(cell["events_per_s"])}
            else:
                key = (int(cell["sessions"]), int(cell["clients"]),
                       str(cell["mode"]))
                cells[key] = {"rate": float(cell["lookups_per_s"]),
                              "p99_ns": float(cell["p99_ns"])}
        except (KeyError, TypeError, ValueError):
            die(f"malformed cell in {path}: {cell}")
    if not cells:
        die(f"{path} has no cells")
    return bench, cells


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline",
                        help="committed full-run JSON (BENCH_fleet"
                             ".json or BENCH_serving.json)")
    parser.add_argument("fresh",
                        help="freshly produced [--smoke] JSON")
    parser.add_argument("--threshold", type=float, default=None,
                        help="max tolerated throughput drop as a "
                             "fraction (default: 0.20 fleet, 0.50 "
                             "serving)")
    parser.add_argument("--p99-threshold", type=float, default=3.0,
                        help="serving only: max tolerated p99 rise "
                             "as a fraction (default: 3.0, i.e. 4x)")
    args = parser.parse_args()

    base_kind, baseline = read_doc(args.baseline)
    fresh_kind, fresh = read_doc(args.fresh)
    if base_kind != fresh_kind:
        die(f"dialect mismatch: {args.baseline} is {base_kind}, "
            f"{args.fresh} is {fresh_kind}")
    threshold = args.threshold if args.threshold is not None else (
        0.20 if base_kind == "fleet_tails_huge" else 0.50)

    common = sorted(set(baseline) & set(fresh))
    if not common:
        die("no comparable cells between the two files")

    failures = 0
    for key in common:
        was, now = baseline[key], fresh[key]
        drop = 0.0 if was["rate"] <= 0 else \
            (was["rate"] - now["rate"]) / was["rate"]
        fail = drop > threshold
        detail = ""
        if base_kind == "serving":
            rise = 0.0 if was["p99_ns"] <= 0 else \
                (now["p99_ns"] - was["p99_ns"]) / was["p99_ns"]
            fail = fail or rise > args.p99_threshold
            detail = (f"   p99 {was['p99_ns']:>9.0f} -> "
                      f"{now['p99_ns']:>9.0f} ns ({rise:+.0%})")
        failures += fail
        verdict = "FAIL" if fail else "ok"
        if base_kind == "fleet_tails_huge":
            services, hosts, policy, mix = key
            label = (f"N={services:<6} M={hosts:<2} {policy:<9} "
                     f"{mix:<21}")
            unit = "ev/s"
        else:
            sessions, clients, mode = key
            label = (f"sessions={sessions:<6} clients={clients:<2} "
                     f"{mode:<7}")
            unit = "lk/s"
        print(f"{verdict:4}  {label} baseline {was['rate']:>12.0f} "
              f"{unit}   fresh {now['rate']:>12.0f} {unit}   "
              f"drop {drop:+.1%}{detail}")

    print(f"\n{len(common)} comparable cell(s), {failures} "
          f"regression(s) beyond {threshold:.0%}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
