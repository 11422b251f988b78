#!/usr/bin/env python3
"""The benchmark's own quick test.

    python3 perfbench/quick_test.py

Runs a tiny-size mode of every workload, untraced and traced, through the
real command (perfbench/run.py) and checks:

  * the last stdout line is exactly {"correct", "attempted", "failed",
    "metrics"}, with every metric BENCHMARK.json names (end-to-end without
    tracing, per-layer with it), each a number with the declared unit;
  * every tiny run is correct with nothing failed;
  * the correctness gate fires on a deliberately corrupted answer (exit
    code 1, "correct": false), untraced and traced;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero and prints no result.

Exits 0 when every check holds, 1 otherwise. Builds on first use, like
run.py, into .bench_build/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []
# Runnable by hand, but not one of BENCHMARK.json's workloads (README.md).
EXTRA_WORKLOADS = ["cache-zipf-rw", "routed-r2"]


def check(condition, what):
    if not condition:
        FAILURES.append(what)
        print(f"FAIL: {what}", flush=True)
    return condition


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "0.6", "--trace", str(trace),
               "--tiny", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


def check_schema(result, names, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']!r}")
    check(isinstance(result["failed"], int), f"{label}: failed not an int")
    metrics = result["metrics"]
    check(set(metrics) == set(names),
          f"{label}: metrics {sorted(set(metrics) ^ set(names))} differ")
    for name, unit in names.items():
        entry = metrics.get(name, {})
        check(isinstance(entry.get("value"), (int, float)),
              f"{label}: {name} has no numeric value")
        check(entry.get("unit") == unit, f"{label}: {name} unit {entry!r}")


def main():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in [w["name"] for w in SPEC["workloads"]] + EXTRA_WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} trace={trace}"
            code, result, done = run(workload, trace)
            check(code == 0, f"{label}: exit {code}: {done.stderr[-400:]}")
            if result is None:
                continue
            check_schema(result, names, label)
            if check(result["correct"] is True and result["failed"] == 0,
                     f"{label}: correct={result['correct']} "
                     f"failed={result['failed']}"):
                print(f"ok: {label} attempted={result['attempted']}",
                      flush=True)

    for trace in (0, 1):
        label = f"corrupted answer trace={trace}"
        code, result, _ = run("admit-small", trace, "--corrupt")
        if check(code == 1 and result is not None
                 and result["correct"] is False and result["failed"] >= 1,
                 f"{label}: gate did not fire"):
            print(f"ok: {label} rejected", flush=True)

    bare = ROOT / ".bench_build" / "quick-test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    code, result, _ = run("admit-small", 0, cwd=bare)
    if check(code != 0 and result is None,
             "bare directory: expected a non-zero exit and no result"):
        print("ok: bare directory refused", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed", flush=True)
        return 1
    print("perfbench quick test: all checks passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
