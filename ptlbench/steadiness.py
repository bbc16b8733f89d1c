#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 ptlbench/steadiness.py [--workloads a,b] [--seeds 10] [--first-seed 1]

For each workload, runs run.py untraced once per seed and prints, per
end-to-end metric, the median and the spread (distance between the first and
third quartile over the median) next to the metric's bound from
BENCHMARK.json. It then runs the traced run twice on the first seed and
checks that every exact work counter repeats to the last digit. Exits 1 when
a run fails, a spread other than setup_s reaches its bound, or a counter
differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are exact counts or ratios of counts. They repeat
# exactly for a seed on the library workloads; served_mixed interleaves two
# clients, so its counts depend on batching and are not compared.
EXACT = (
    "db.states_per_op", "rules.query_evals_per_state",
    "rules.memo_hits_per_state", "rules.steps_per_state",
    "rules.actions_per_state", "rules.ic_checks_per_commit",
    "rules.ic_vetoes", "eval.retained_nodes", "eval.store_nodes",
    "eval.collections", "storage.wal_bytes_per_op",
    "storage.wal_records_per_op", "temporal.bytes_per_commit",
    "temporal.rows_archived_per_commit",
)
LIBRARY = ("ticks_steady", "stock_churn")


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stdout.write(out.stdout)
        raise SystemExit("%s seed %d trace %d failed (exit %d)"
                         % (workload, seed, trace, out.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run(workload, seed, args.seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d seeds)" % (workload, args.seeds))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= bounds[name] / 3:
                flag = "  (above a third of the bound)"
            if spread >= bounds[name] and name != "setup_s":
                flag = "  SPREAD OVER BOUND"
                ok = False
            print("  %-16s median %14.4f  spread %6.3f  bound %.2f%s"
                  % (name, med, spread, bounds[name], flag))
            print("  %16s %s" % ("", " ".join("%.4g" % v for v in vals)))
        if workload in LIBRARY:
            a = run(workload, args.first_seed, args.seconds, 1)["metrics"]
            b = run(workload, args.first_seed, args.seconds, 1)["metrics"]
            diff = [n for n in EXACT if a[n]["value"] != b[n]["value"]]
            print("  exact counters %s" % ("repeat" if not diff else
                                            "DIFFER: " + ", ".join(diff)))
            ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
