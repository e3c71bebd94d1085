#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Run from the root of a checkout:

    python3 e2e_bench/run.py --workload road-sssp --seed 1 --seconds 20 --trace 0

The first run configures and builds e2e_bench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR/e2e_bench, or
.bench_build/e2e_bench when the variable is unset; later runs reuse
the build. The benchmark's result is the last line of standard output:
one JSON object with "correct", "attempted", "failed" and "metrics".
A traced run (--trace 1) also writes its spans next to the build, one
JSON object per line. Any failure exits non-zero without a result.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "e2e_bench")


def build(target):
    """Configure once, then build `target`; build output goes to stderr
    so that standard output ends with the result."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build("hdcps_e2e")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--trace-out", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no result")
    if not isinstance(result, dict) or "metrics" not in result:
        fail("benchmark's last line is not a result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
