#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py, driven end-to-end
through a subprocess so the documented exit-status contract is what
is pinned: 0 = every comparable cell passes, 1 = regression,
2 = malformed input or no comparable cells.

Stdlib-only (unittest, no pytest) so it runs in the bare CI image;
registered with ctest by the top-level CMakeLists.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOL = pathlib.Path(__file__).resolve().parents[1] / \
    "check_bench_regression.py"


def bench_doc(cells):
    """A minimal fleet_tails --huge JSON with the given cells, each a
    (services, hosts, policy, events_per_s) tuple or a
    (services, hosts, policy, events_per_s, mix) tuple."""
    rows = []
    for cell in cells:
        s, h, p, ev = cell[:4]
        row = {"services": s, "hosts": h, "policy": p,
               "events_per_s": ev, "peak_rss_bytes": 1 << 20}
        if len(cell) > 4:
            row["mix"] = cell[4]
        rows.append(row)
    return {"bench": "fleet_tails_huge", "cells": rows}


def serving_doc(cells):
    """A minimal bench_serving JSON with the given cells, each a
    (sessions, clients, mode, lookups_per_s, p99_ns) tuple."""
    rows = [{"sessions": s, "clients": c, "mode": m,
             "lookups_per_s": rate, "p99_ns": p99,
             "p50_ns": p99 / 2, "ops": 50_000,
             "peak_rss_bytes": 1 << 20}
            for s, c, m, rate, p99 in cells]
    return {"bench": "serving", "smoke": False,
            "budget_ns": 250_000, "cells": rows}


class CheckBenchRegressionTest(unittest.TestCase):

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def path_for(self, name, text):
        p = pathlib.Path(self._dir.name) / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    def json_for(self, name, cells):
        return self.path_for(name, json.dumps(bench_doc(cells)))

    def run_tool(self, *argv):
        return subprocess.run(
            [sys.executable, str(TOOL), *argv],
            capture_output=True, text=True)

    def test_matching_cells_pass(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        fresh = self.json_for("fresh.json",
                              [(1000, 2, "sjf", 990_000.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("ok", result.stdout)

    def test_regression_beyond_threshold_fails(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        fresh = self.json_for("fresh.json",
                              [(1000, 2, "sjf", 500_000.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def test_exactly_threshold_drop_passes(self):
        # The gate is strict (drop > threshold): a drop of exactly
        # 20% against the default 0.20 threshold is tolerated.
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        fresh = self.json_for("fresh.json",
                              [(1000, 2, "sjf", 800_000.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertNotIn("FAIL", result.stdout)

    def test_just_past_threshold_fails(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        fresh = self.json_for("fresh.json",
                              [(1000, 2, "sjf", 799_000.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_custom_threshold(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        fresh = self.json_for("fresh.json",
                              [(1000, 2, "sjf", 950_000.0)])
        self.assertEqual(
            self.run_tool(base, fresh, "--threshold", "0.01")
            .returncode, 1)
        self.assertEqual(
            self.run_tool(base, fresh, "--threshold", "0.10")
            .returncode, 0)

    def test_only_shared_cells_compared(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0),
                              (10_000, 8, "sjf", 4_000_000.0)])
        fresh = self.json_for("fresh.json",
                              [(1000, 2, "sjf", 990_000.0),
                               (500, 1, "fifo", 1.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("1 comparable cell(s)", result.stdout)

    def test_no_shared_cells_is_an_input_error(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        fresh = self.json_for("fresh.json",
                              [(500, 1, "fifo", 1_000_000.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("no comparable", result.stderr)

    def test_malformed_json_exits_2(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        broken = self.path_for("broken.json", "{not json")
        result = self.run_tool(base, broken)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("cannot read", result.stderr)

    def test_missing_file_exits_2(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        result = self.run_tool(base, str(
            pathlib.Path(self._dir.name) / "nope.json"))
        self.assertEqual(result.returncode, 2, result.stderr)

    def test_wrong_bench_kind_exits_2(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        other = self.path_for(
            "other.json",
            json.dumps({"bench": "something_else", "cells": []}))
        result = self.run_tool(base, other)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("not a fleet_tails", result.stderr)

    def test_cell_missing_field_exits_2(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        doc = bench_doc([(1000, 2, "sjf", 1_000_000.0)])
        del doc["cells"][0]["events_per_s"]
        broken = self.path_for("cell.json", json.dumps(doc))
        result = self.run_tool(base, broken)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("malformed cell", result.stderr)

    def test_empty_cells_exits_2(self):
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        empty = self.path_for(
            "empty.json",
            json.dumps({"bench": "fleet_tails_huge", "cells": []}))
        result = self.run_tool(base, empty)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("has no cells", result.stderr)

    def test_mix_field_disambiguates_cells(self):
        # A conformance cell shares (services, hosts, policy) with a
        # scale-plan cell; the mix tag must keep the two from being
        # compared against each other.
        base = self.json_for(
            "base.json",
            [(100, 1, "fifo", 1_000_000.0),
             (100, 1, "fifo", 100_000.0, "ycsb+daemons+hostloss")])
        fresh = self.json_for(
            "fresh.json",
            [(100, 1, "fifo", 990_000.0),
             (100, 1, "fifo", 99_000.0, "ycsb+daemons+hostloss")])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("2 comparable cell(s)", result.stdout)

    def test_mix_regression_caught_despite_healthy_mixed_twin(self):
        base = self.json_for(
            "base.json",
            [(100, 1, "fifo", 1_000_000.0),
             (100, 1, "fifo", 100_000.0, "ycsb+daemons+hostloss")])
        fresh = self.json_for(
            "fresh.json",
            [(100, 1, "fifo", 1_000_000.0),
             (100, 1, "fifo", 50_000.0, "ycsb+daemons+hostloss")])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("ycsb+daemons+hostloss", result.stdout)

    def test_missing_mix_defaults_to_mixed(self):
        # Baselines written before the mix field existed must stay
        # comparable against fresh files that spell it out.
        base = self.json_for("base.json",
                             [(1000, 2, "sjf", 1_000_000.0)])
        fresh = self.json_for("fresh.json",
                              [(1000, 2, "sjf", 990_000.0, "mixed")])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("1 comparable cell(s)", result.stdout)

    def test_zero_baseline_never_divides(self):
        base = self.json_for("base.json", [(1000, 2, "sjf", 0.0)])
        fresh = self.json_for("fresh.json", [(1000, 2, "sjf", 0.0)])
        self.assertEqual(self.run_tool(base, fresh).returncode, 0)

    # ---- the serving dialect (bench_serving JSONs) ----

    def serving_for(self, name, cells):
        return self.path_for(name, json.dumps(serving_doc(cells)))

    def test_serving_matching_cells_pass(self):
        base = self.serving_for(
            "base.json",
            [(100, 1, "direct", 1_000_000.0, 2_000.0),
             (100, 4, "socket", 200_000.0, 50_000.0)])
        fresh = self.serving_for(
            "fresh.json",
            [(100, 1, "direct", 900_000.0, 2_500.0),
             (100, 4, "socket", 190_000.0, 60_000.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("2 comparable cell(s)", result.stdout)

    def test_serving_throughput_cliff_fails(self):
        # The serving default threshold is 0.50: a 60% drop is the
        # algorithmic-cliff signature the gate exists for.
        base = self.serving_for(
            "base.json",
            [(100, 1, "direct", 1_000_000.0, 2_000.0)])
        fresh = self.serving_for(
            "fresh.json",
            [(100, 1, "direct", 400_000.0, 2_000.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def test_serving_p99_blowup_fails_despite_healthy_rate(self):
        # p99 rising beyond 4x (default --p99-threshold 3.0) fails
        # even when throughput held: a serialized tail is exactly the
        # regression the latency budget guards against.
        base = self.serving_for(
            "base.json",
            [(100, 1, "direct", 1_000_000.0, 2_000.0)])
        fresh = self.serving_for(
            "fresh.json",
            [(100, 1, "direct", 1_000_000.0, 9_000.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("p99", result.stdout)

    def test_serving_p99_threshold_flag(self):
        base = self.serving_for(
            "base.json",
            [(100, 1, "direct", 1_000_000.0, 2_000.0)])
        fresh = self.serving_for(
            "fresh.json",
            [(100, 1, "direct", 1_000_000.0, 5_000.0)])
        self.assertEqual(
            self.run_tool(base, fresh).returncode, 0)
        self.assertEqual(
            self.run_tool(base, fresh, "--p99-threshold", "1.0")
            .returncode, 1)

    def test_serving_mode_disambiguates_cells(self):
        # A socket cell shares (sessions, clients) with a direct
        # cell; the mode tag must keep the two apart.
        base = self.serving_for(
            "base.json",
            [(100, 4, "direct", 1_000_000.0, 2_000.0),
             (100, 4, "socket", 200_000.0, 50_000.0)])
        fresh = self.serving_for(
            "fresh.json",
            [(100, 4, "direct", 1_000_000.0, 2_000.0),
             (100, 4, "socket", 50_000.0, 50_000.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("socket", result.stdout)

    def test_serving_smoke_subset_compares_shared_cells_only(self):
        # The committed baseline carries 10k-session cells the smoke
        # plan omits; only the shared cells are compared.
        base = self.serving_for(
            "base.json",
            [(100, 1, "direct", 1_000_000.0, 2_000.0),
             (10_000, 4, "direct", 900_000.0, 2_500.0)])
        fresh = self.serving_for(
            "fresh.json",
            [(100, 1, "direct", 950_000.0, 2_100.0)])
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("1 comparable cell(s)", result.stdout)

    def test_dialect_mismatch_exits_2(self):
        fleet = self.json_for("fleet.json",
                              [(1000, 2, "sjf", 1_000_000.0)])
        serving = self.serving_for(
            "serving.json",
            [(100, 1, "direct", 1_000_000.0, 2_000.0)])
        result = self.run_tool(fleet, serving)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("dialect mismatch", result.stderr)

    def test_serving_cell_missing_p99_exits_2(self):
        base = self.serving_for(
            "base.json",
            [(100, 1, "direct", 1_000_000.0, 2_000.0)])
        doc = serving_doc(
            [(100, 1, "direct", 1_000_000.0, 2_000.0)])
        del doc["cells"][0]["p99_ns"]
        broken = self.path_for("cell.json", json.dumps(doc))
        result = self.run_tool(base, broken)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("malformed cell", result.stderr)


if __name__ == "__main__":
    unittest.main()
