#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build/, runs the workload driver for about --seconds of wall time,
and writes the full report (every end-to-end, per-layer and simulated
metric, the layer self times and the check results) to
.bench_out/<workload>-seed<n>-trace<t>.json; traced runs also write their
spans to the matching .spans.jsonl. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json when --trace 0 and its
per_layer metrics when --trace 1. Exits non-zero when a check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady_dissemination", "query_storm", "churn_repartition")
# Whole-run limit, build excluded.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("system sources not found next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_dir), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "--target", "dsps_perfbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # The build log is shown only on failure: stdout's last line is the
        # result.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "dsps_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", stem + ".spans.jsonl"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver exited %d without output" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("driver's last line is not JSON (exit %d)" % proc.returncode)
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["trace"] = args.trace
    report["wall_s"] = time.monotonic() - start
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    source = report["per_layer"] if args.trace else report["end_to_end"]
    correct = bool(report["correct"]) and proc.returncode == 0
    metrics = {}
    for m in wanted:
        v = source.get(m["name"])
        if isinstance(v, dict):
            v = v["value"]
        if v is None:
            print("perfbench: metric %s missing" % m["name"], file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    for f in report["check_failures"]:
        print("CHECK FAILED: " + f, file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
