#!/usr/bin/env python3
"""Builds xsolved and the load generator, then runs one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload in turn
    python3 perfbench/run.py --workload W --steady K # K seeds, spread report

Run from the root of an xsa checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; so do the daemon's log, its
port file and the client spans of traced runs. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["paper-table2", "cold-distinct", "hot-recurring"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "xsolved",
                  "perfbench_loadgen", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("error: build failed: " + " ".join(cmd))


def run_once(build_dir, workload, seed, seconds, trace):
    """Runs the generator; returns (exit code, stdout lines, result)."""
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_loadgen"),
           "--xsolved", os.path.join(build_dir, "xsa", "xsolved"),
           "--workdir", work_dir, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def steady(build_dir, workload, seed, seconds, trace, runs):
    """Repeats a workload over seeds seed..seed+runs-1 and prints, per
    metric, the median and the quartile spread (Q3-Q1 over the median),
    with the host's steal ticks of each run. Runs are never filtered."""
    values, steal, status = {}, [], 0
    for k in range(runs):
        code, lines, result = run_once(build_dir, workload, seed + k,
                                       seconds, trace)
        status = status or code
        for line in lines:
            if line.startswith("# steal_ticks"):
                steal.append(int(line.split()[2]))
        if result is None:
            print(f"run {k}: no result (exit {code})")
            continue
        for name, m in result["metrics"].items():
            values.setdefault((name, m["unit"]), []).append(m["value"])
        print(f"run {k} seed {seed + k}: exit {code} attempted "
              f"{result['attempted']} failed {result['failed']} correct "
              f"{result['correct']} steal {steal[-1] if steal else '?'}: " +
              " ".join(f"{n}={m['value']:.4g}"
                       for n, m in result["metrics"].items()))
    print(f"steal ticks per run: {steal}")
    print(f"{'metric':34} {'median':>14} {'spread':>8}  unit")
    for (name, unit), v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:34} {med:14.6g} {spread:8.4f}  {unit}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K",
                    help="repeat K times with consecutive seeds")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.steady:
        status = 0
        for w in workloads:
            print(f"== {w}")
            status = steady(build_dir, w, args.seed, args.seconds,
                            args.trace, args.steady) or status
        return status

    status, total = 0, {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
    for w in workloads:
        code, lines, result = run_once(build_dir, w, args.seed, args.seconds,
                                       args.trace)
        status = status or code or (result is None)
        if result is None:
            print("\n".join(lines))
            print(f"error: {w} produced no result", file=sys.stderr)
            return 1
        if len(workloads) == 1:
            print("\n".join(lines))
            return code
        print(f"== {w}")
        print("\n".join(lines[:-1]))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w}/{name}"] = m
    print(json.dumps(total))
    return status


if __name__ == "__main__":
    sys.exit(main())
