#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny input sizes.

Usage (from the repository root): python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * each Hive-style reference equals the NaiveMultiwayJoin oracle;
  * an untraced run prints every end_to_end metric and a traced run every
    per_layer metric, each with its declared unit, and no failed query;
  * a run against a deliberately corrupted reference counts failed
    queries, reports correct=false and exits non-zero.
Exits 0 when every check passes.
"""

import json
import math
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY_SECONDS = "0.5"


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def check_run(workload, trace, expected, extra=()):
    """Runs one tiny workload; returns a list of problems."""
    code, out = run.run_benchmark(
        ["--workload", workload, "--seed", "3", "--seconds", TINY_SECONDS,
         "--trace", str(trace), "--tiny", *extra])
    result = last_json(out)
    where = f"{workload} trace={trace}"
    if code != 0 or result is None:
        return [f"{where}: exit code {code}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: failed queries {result['failed']}")
    if result["attempted"] < 1:
        problems.append(f"{where}: no query attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics {sorted(metrics)} != "
                        f"{sorted(expected)}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} value {m.get('value')}")
    return problems


def check_corrupted(workload):
    code, out = run.run_benchmark(
        ["--workload", workload, "--seed", "3", "--seconds", TINY_SECONDS,
         "--trace", "0", "--tiny", "--corrupt-reference"])
    result = last_json(out)
    if code == 0:
        return [f"{workload}: corrupted reference exited 0"]
    if result is None or result["correct"] or result["failed"] < 1:
        return [f"{workload}: corrupted reference not counted as failed: "
                f"{result}"]
    return []


def main():
    if not run.build():
        print("selftest: build failed")
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        problems += check_run(name, 0, end_to_end, ["--check-oracle"])
        problems += check_run(name, 1, per_layer)
        problems += check_corrupted(name)
        print(f"selftest: {name} checked", flush=True)
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAILED" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
