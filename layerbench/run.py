#!/usr/bin/env python3
"""Build and run the layer-ledger benchmark for one workload.

Usage, from the root of a source checkout:

    python3 layerbench/run.py --workload kernels|stream|cold|sweep \
        --seed N --seconds S --trace 0|1

Builds layerbench/ledger.exe with dune (the first build compiles the
whole library stack), runs it, and passes its output through.  The last
line of standard output is the JSON result: {"correct", "attempted",
"failed", "metrics"}.  Exits non-zero without a result if the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "layerbench/ledger.exe"
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["kernels", "stream", "cold", "sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./" + TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("layerbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(ROOT, "_build", "default", TARGET)
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("layerbench: run timed out", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print("layerbench: run failed (exit %d)" % run.returncode, file=sys.stderr)
        return 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        print("layerbench: no result line", file=sys.stderr)
        return 5
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0 if isinstance(result, dict) and "metrics" in result else 5


if __name__ == "__main__":
    sys.exit(main())
