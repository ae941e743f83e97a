#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout of the repository.  The driver and the
dvs library it links are configured and built (CMake, Release) under the
directory named by CARGO_TARGET_DIR, default `.bench_build` at the checkout
root; the build is incremental, so only the first run pays for it.  Build
output goes to stderr.  The driver's result, one JSON object, is the last
line of stdout; this script checks that its metric names are exactly the
ones BENCHMARK.json declares and exits with the driver's status.

--self-test checks the benchmark itself: the default seed passes, one
deliberately perturbed expected value is reported as a failure, and a second
seed passes the seed-independent checks of every workload.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-suite", "eco-edits", "service-mix")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "suite.hpp")):
        sys.exit("perfbench: the dvs sources (src/) are missing from this checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit status, parsed result or None,
    the result line as printed)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--expected", os.path.join(HERE, "expected")]
    try:
        done = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 124, None, None
    lines = done.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: no result line from the driver\n")
        return done.returncode or 3, None, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        return 3, None, None
    expected = declared_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: %s\n"
                         % sorted(set(result["metrics"]) ^ expected))
        return 3, None, None
    return done.returncode, result, lines[-1]


def self_test(binary):
    checks = []
    status, result, _ = run(binary, "paper-suite", 1, 1, False)
    checks.append(("default seed passes", status == 0 and result and result["correct"]))
    status, result, _ = run(binary, "paper-suite", 1, 1, False, ["--perturb-expected"])
    checks.append(("perturbed expected value fails",
                   status != 0 and result is not None and not result["correct"]
                   and result["failed"] >= 1))
    for workload in WORKLOADS:
        status, result, _ = run(binary, workload, 2, 1, False)
        checks.append(("seed 2 passes " + workload,
                       status == 0 and result and result["correct"]))
    for name, ok in checks:
        sys.stderr.write("self-test: %-40s %s\n" % (name, "ok" if ok else "FAILED"))
    return 0 if all(ok for _, ok in checks) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    status, result, line = run(binary, args.workload, args.seed, args.seconds,
                               args.trace == 1)
    if result is None:
        return status or 3
    print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
