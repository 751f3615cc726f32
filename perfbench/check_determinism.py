#!/usr/bin/env python3
"""Determinism check: two separate runs with one seed agree exactly.

Usage, from the repository root:

    python3 perfbench/check_determinism.py [--seconds 1]

For every workload, on the default seed and on the held-out seed, runs
perfbench/run.py twice (untraced, then traced) and compares the simulated
outputs of the two reports: event count, results, WAN bytes, latency and
PR quantiles, edge cut, migrations and the rest of the "sim" section. Each
run also checks its own iterations against each other and its correctness
oracles, so a clean exit here means all of those passed too. Exits 1 on
any difference or failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady_dissemination", "query_storm", "churn_repartition")

DEFAULT_SEED = 1
# Never used while the workloads were sized or tuned.
HELD_OUT_SEED = 20061


def report(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    path = os.path.join(ROOT, ".bench_out",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return proc.returncode, json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            rc0, a = report(workload, seed, 0, args.seconds)
            rc1, b = report(workload, seed, 1, args.seconds)
            diff = sorted(k for k in set(a["sim"]) | set(b["sim"])
                          if a["sim"].get(k) != b["sim"].get(k))
            good = rc0 == 0 and rc1 == 0 and not diff
            ok = ok and good
            print("%-22s seed %-6d %s  results=%d events=%d%s" % (
                workload, seed, "ok  " if good else "FAIL",
                a["sim"]["results"], a["sim"]["sim_events"],
                "  differs: " + ", ".join(diff) if diff else ""))
            for f in a["check_failures"] + b["check_failures"]:
                print("    check failed: " + f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
