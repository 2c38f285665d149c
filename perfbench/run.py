#!/usr/bin/env python3
"""Builds and runs the msql benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload analyst|dashboard_net|ingest|all \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds the msqlbench
program (this directory's CMake package, which compiles the engine from
../src) into .bench_build, then runs it. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175  # per workload
WORKLOADS = ["analyst", "dashboard_net", "ingest"]


def build():
    """Builds msqlbench; returns its path, or None when the build fails."""
    out = BUILD_DIR
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    done = subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "msqlbench"],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode:
        return None
    return os.path.join(out, "msqlbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("msqlbench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, "%s-seed%d.csv" % (args.workload, args.seed))]
    timeout = RUN_TIMEOUT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("msqlbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
