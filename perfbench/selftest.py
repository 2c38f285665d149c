#!/usr/bin/env python3
"""Self-test of the msql benchmark: tiny-size runs of every workload.

    python3 perfbench/selftest.py

Builds msqlbench as run.py does, then, for each workload at --size tiny:
  * an untraced run must print every end-to-end metric BENCHMARK.json
    names, and a traced run every per-layer one, each with its unit;
  * every run must report correct = true and failed = 0 (error_rate 0);
  * on the single-client workloads (analyst, ingest), two traced runs with
    the same seed must print identical per-query counters (measure.* and
    exec.* counts).
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step is shared with run.py)

COUNTERS = ["measure.grouped_builds", "measure.grouped_probes",
            "measure.source_scans", "measure.inline_evals",
            "exec.vectorized_batches", "exec.row_fallbacks"]
SINGLE_CLIENT = {"analyst", "ingest"}


def run_tiny(binary, workload, seed, trace):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True,
                          text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, "exit %d: %s" % (done.returncode, done.stderr.strip()[-300:])
    return json.loads(lines[-1]), ""


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        print("selftest: build failed")
        return 1
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        results = {}
        for trace, key in [(0, "end_to_end"), (1, "per_layer"), (1, None)]:
            result, error = run_tiny(binary, workload, 7, trace)
            if result is None:
                problems.append("%s trace=%d: %s" % (workload, trace, error))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace=%d: %d of %d operations failed" % (
                    workload, trace, result["failed"], result["attempted"]))
            if key is None:
                results["second"] = result
                continue
            results[trace] = result
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append("%s trace=%d: metric %s missing or not in %s"
                                    % (workload, trace, metric["name"], metric["unit"]))
        if workload in SINGLE_CLIENT and 1 in results and "second" in results:
            for name in COUNTERS:
                a = results[1]["metrics"].get(name, {}).get("value")
                b = results["second"]["metrics"].get(name, {}).get("value")
                if a != b:
                    problems.append("%s: %s differs between runs with one seed: %s vs %s"
                                    % (workload, name, a, b))
        print("selftest: %s checked" % workload, flush=True)
    for p in problems:
        print("selftest FAILED: " + p)
    if not problems:
        print("selftest: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
