#!/usr/bin/env python3
"""Gates ptlbench's exact work counters against a checked-in expected file.

    python3 tools/ptlbench_counters.py [--record]

Run from the root of a checkout. Runs `ptlbench/run.py --seed 1 --seconds 1
--trace 1` once per workload and fails when a run exits nonzero (one of the
benchmark's correctness gates failed). On the library workloads it then
compares every exact counter (EXACT in ptlbench/steadiness.py) with
tools/ptlbench_counters.json: any difference, up or down, fails until the
file is re-recorded with --record and the change is explained. served_mixed
runs for its gates only, because its counts depend on how requests batch.
Timings are never gated.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ under ptlbench/
sys.path.insert(0, os.path.join(ROOT, "ptlbench"))
from run import WORKLOADS  # noqa: E402
from steadiness import EXACT, LIBRARY  # noqa: E402

EXPECTED = os.path.join(HERE, "ptlbench_counters.json")


def run(workload):
    """One traced seed-1 run; returns its result JSON, or None on failure."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "ptlbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out.stdout)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print("%s: run.py exited %d" % (workload, out.returncode))
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--record", action="store_true",
                    help="rewrite the expected file from this tree's counts")
    args = ap.parse_args()
    expected = {}
    if not args.record:
        with open(EXPECTED) as f:
            expected = json.load(f)
    ok = True
    seen = {}
    for workload in WORKLOADS:
        result = run(workload)
        if result is None:
            ok = False
            continue
        if workload not in LIBRARY:
            continue
        metrics = result["metrics"]
        seen[workload] = {name: metrics[name]["value"] for name in EXACT}
        if args.record:
            continue
        want = expected.get(workload, {})
        for name in EXACT:
            if name not in want:
                print("%s: %s has no expected value" % (workload, name))
                ok = False
            elif seen[workload][name] != want[name]:
                print("%s: %s is %r, expected %r"
                      % (workload, name, seen[workload][name], want[name]))
                ok = False
    if args.record and ok:
        with open(EXPECTED, "w") as f:
            json.dump(seen, f, indent=2, sort_keys=True)
            f.write("\n")
        print("recorded %s" % os.path.relpath(EXPECTED, ROOT))
    print("counter gate: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
