#!/usr/bin/env python3
"""Builds the ptldb benchmark from source and runs one workload.

    python3 ptlbench/run.py --workload ticks_steady --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
ptlbench/CMakeLists.txt (the library sources from src/ plus the benchmark) under
$CARGO_TARGET_DIR/ptlbench, default .bench_build/ptlbench; later runs only
check that the build is up to date. Build output goes to stderr; the benchmark's
report goes to stdout, and its last line is the result JSON. The exit code is
the benchmark binary's: 0 when every correctness gate passed.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ticks_steady", "stock_churn", "served_mixed")


def build(build_dir):
    """Configures once, then builds the benchmark; serialized by a lock file."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "ptlbench", "-j", jobs],
            stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "db", "database.h")):
        print("ptlbench: no ptldb sources under %s/src" % ROOT, file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "ptlbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("ptlbench: build failed: %s" % e, file=sys.stderr)
        return 2

    run_dir = os.path.join(build_root, "runs",
                           "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(build_dir, "ptlbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir]
    if args.trace:
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    rc = subprocess.run(cmd).returncode
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
