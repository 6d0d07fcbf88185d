#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload ifds_trivial --seed 1 --seconds 20 --trace 0

Builds the flix libraries and the workload binary from this checkout
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, by default
.bench_build/perfbench, refuses a build without optimization, runs the
workload in a process of its own, checks its metrics against those
BENCHMARK.json declares, and prints the run record line and, last, the
result object. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("ifds_trivial", "su_source_par2", "serve_churn")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")
# A run must end within 180 s; stop a stuck workload before that.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_checked(cmd):
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        fail("command failed with status %d: %s"
             % (result.returncode, " ".join(cmd)))


def cached_build_type(bdir):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configures (once) and builds the binary; returns (path, build type)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no flix sources next to perfbench/ (expected src/CMakeLists.txt)")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    build_type = cached_build_type(bdir)
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail("refusing to measure a '%s' build; configure %s with one of %s"
             % (build_type, bdir, ", ".join(OPTIMIZED_BUILD_TYPES)))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", bdir, "--target", "flix_perfbench",
                 "-j", jobs])
    return os.path.join(bdir, "flix_perfbench"), build_type


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest():
    """SHA-256 over src/ and perfbench/: names the code measured even when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def declared_metrics(reported, trace):
    """The binary's metrics as BENCHMARK.json declares them: in its order,
    with their declared units. A per-layer metric the workload does not
    reach is 0; a missing end-to-end metric, a unit that differs or an
    undeclared metric is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    undeclared = [name for name in reported if name not in names]
    if undeclared:
        fail("the binary reported undeclared metrics: " + ", ".join(undeclared))
    metrics = {}
    for m in declared:
        got = reported.get(m["name"])
        if got is None:
            if not trace:
                fail("the workload reported no " + m["name"])
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail("%s reported in %s, declared in %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    exe, build_type = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if result.returncode != 0 or len(lines) < 2:
        fail("workload binary exited with status %d" % result.returncode)
    outcome = json.loads(lines[-1])
    outcome["metrics"] = declared_metrics(outcome["metrics"], args.trace)
    record = json.loads(lines[-2])["record"]
    record.update({"git_sha": git_sha(), "source_sha256": source_digest(),
                   "cmake_build_type": build_type,
                   "nproc": os.cpu_count()})
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
