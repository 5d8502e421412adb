#!/usr/bin/env python3
"""Repository benchmark entry point.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the benchmark binary (a package of its own in this directory, with
path dependencies on the repository's crates) in release mode, runs one
workload for the given host seconds, and relays its output. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Cargo writes to
`$CARGO_TARGET_DIR` (default `perfbench/target`); the sweep cache and the
span log go to `perfbench-work/` under it. Exits non-zero without a result
line when the build fails or the binary produces no valid result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["spmd-cg64", "spmd-ep-wide", "serve-trace", "fig2-sweep"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The benchmark binary's own wall-clock limit, below the 180 s per run.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", default="0xB0A710AD")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "speedbal-perfbench")
    work_root = os.path.join(target, "perfbench-work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    spans = os.path.join(work_root, f"spans-{args.workload}-trace{args.trace}.json")
    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--spans", spans]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if run.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"perfbench: benchmark exited {run.returncode} without a valid result",
              file=sys.stderr)
        return 1
    # A failed output check is reported through `correct` and `failed`.
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
