#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload in a fresh process. The last line of standard output
      is its JSON result: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py [--seed N] [--smoke] [--trace 0|1] [--out DIR]
      Every workload in BENCHMARK.json, each in its own process; with
      --out, the results are written to DIR/results.json. --smoke runs
      each workload at about a tenth of its size for one second.

The benchmark binary is built from perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR (default .bench_build); the first run builds it.
Exits non-zero when the build fails, a correctness check fails or a
workload reports a metric set other than BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A workload must finish within 180 s; the benchmark measures at most
# 120 s of that.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then build (a no-op when up to date)."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4"])
    for step in steps:
        # Build output goes to stderr: stdout carries the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "dejavu_perfbench")


def run_workload(binary, workload, args, out_dir):
    """Run one workload; returns (exit code, stdout lines, result)."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return done.returncode, lines, result


def check_metrics(workload, result, expected):
    got = set(result.get("metrics", {}))
    if got != expected:
        fail(f"{workload} reported metrics {sorted(got ^ expected)} "
             "that differ from BENCHMARK.json")


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write DIR/results.json")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1 if args.smoke else bench["run_seconds"]
    expected = {m["name"] for m in
                bench["per_layer" if args.trace else "end_to_end"]}

    binary = build()
    out_dir = args.out or os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    out_dir = os.path.relpath(out_dir, ROOT)  # short AF_UNIX socket path

    if args.workload:
        code, lines, result = run_workload(binary, args.workload, args,
                                           out_dir)
        if result is None:
            print("\n".join(lines))
            fail(f"{args.workload} printed no result (exit {code})")
        check_metrics(args.workload, result, expected)
        print("\n".join(lines))
        results = {args.workload: result}
    else:
        code, results = 0, {}
        for workload in names:
            status, lines, result = run_workload(binary, workload, args,
                                                 out_dir)
            print("\n".join(lines[:-1]))
            if result is None:
                fail(f"{workload} printed no result (exit {status})")
            check_metrics(workload, result, expected)
            results[workload] = result
            code = code or status
            print(f"== {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")

    if args.out:
        with open(os.path.join(ROOT, out_dir, "results.json"), "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "smoke": args.smoke,
                       "workloads": results}, f, indent=1)
    sys.exit(code)


if __name__ == "__main__":
    main()
