#!/usr/bin/env python3
"""Check that the benchmark is steady: sets of runs of one build agree.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10]
        [--first-seed 1] [--sets 2]

Each set runs every chosen workload once per seed (the same seeds in
every set) through perfbench/run.py with --trace 0. For each (workload,
end-to-end metric) it prints, per set, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median, then whether every spread is within the metric's
bound in BENCHMARK.json and whether every later set's median is within
the bound of the first set's, in either direction. Exits 1 when a run
fails or a check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit("run failed: " + " ".join(cmd))
    return json.loads(result.stdout.strip().splitlines()[-1])


def drift(first, later):
    """How far `later` is from `first`, as a signed share of `first`."""
    return (later - first) / first if first else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="",
                        help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    values = {}
    failed_runs = 0
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                res = run_once(w, seed, seconds)
                if not res["correct"] or res["failed"]:
                    failed_runs += 1
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(
                        res["metrics"][m["name"]]["value"])
                print("set %d %s seed %d done" % (s + 1, w, seed),
                      file=sys.stderr, flush=True)

    steady = failed_runs == 0
    print("%-15s %-17s %5s | %s | %s" % (
        "workload", "metric", "bound",
        " | ".join("set %d: median [q1, q3] spread" % (s + 1)
                   for s in range(args.sets)),
        "worst drift"))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians, cells = [], []
            for s in range(args.sets):
                xs = values[(s, w, name)]
                q1, _, q3 = statistics.quantiles(xs, n=4)
                med = statistics.median(xs)
                spread = (q3 - q1) / med if med else float("inf")
                ok = spread <= bound
                steady &= ok
                medians.append(med)
                cells.append("%.5g [%.5g, %.5g] %.3f%s" % (
                    med, q1, q3, spread, "" if ok else " WIDE"))
            worst = max([drift(medians[0], x) for x in medians[1:]] or [0.0],
                        key=abs)
            agree = abs(worst) <= bound
            steady &= agree
            print("%-15s %-17s %5.2f | %s | %+.3f %s" % (
                w, name, bound, " | ".join(cells), worst,
                "agree" if agree else "DISAGREE"))
    if failed_runs:
        print("%d run(s) reported failed operations" % failed_runs)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
