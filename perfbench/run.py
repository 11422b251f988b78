#!/usr/bin/env python3
"""The quest serving benchmark: one command per workload run.

    python3 perfbench/run.py --workload admit-small --seed 1 --seconds 10 --trace 0

Run from the root of a quest source tree. It builds quest_serve,
quest_router and the benchmark's own load generator (questbench) in
Release from that tree into .bench_build/perfbench, refuses any other
build type, then runs questbench and prints two JSON lines on stdout:

  1. the full report: machine record (nproc, CPU model, load average
     before and after, build type, git commit or source digest), sample
     counts, generator validity checks, correctness-gate details;
  2. the result: {"correct", "attempted", "failed", "metrics"} — the
     end-to-end metrics with --trace 0, the per-layer metrics with
     --trace 1.

Exit codes: 0 ok, 1 the correctness gate found a wrong answer (the result
line is still printed), 2 not inside a quest source tree or bad
arguments, 3 build failed, 4 not a Release build, 5 the run failed or
timed out (nothing printed on stdout). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TARGETS = ["questbench", "quest_serve", "quest_router"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the three binaries; returns the build type."""
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_average():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def cpu_times():
    """Aggregate jiffies from /proc/stat (user ... steal)."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of all CPU time the hypervisor gave to other guests."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def reference_speed():
    """Millions of iterations per CPU-second of a fixed integer loop.

    Other tenants of a shared host slow this guest's CPUs without any
    counter inside it showing it (they share cores and caches); this
    reading, taken before and after the run, says how fast the host was.
    """
    iterations = 1_000_000
    started = time.thread_time()
    x = 1
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return iterations / max(time.thread_time() - started, 1e-9) / 1e6


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources the binaries are built from."""
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        paths.extend(p for p in sorted((ROOT / top).rglob("*")) if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (the benchmark's own test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one answer before the correctness gate")
    args = parser.parse_args()

    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src").is_dir()
            and (ROOT / "tools").is_dir()):
        log(f"{ROOT} is not a quest source tree; nothing to build")
        return 2

    build_type = build()
    if build_type is None:
        log("build failed")
        return 3
    if build_type != "Release":
        log(f"refusing a {build_type or 'untyped'} build; Release only")
        return 4

    tools = BUILD / "quest" / "tools"
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    command = [
        str(BUILD / "questbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve", str(tools / "quest_serve"),
        "--router", str(tools / "quest_router"),
        "--trace-out", str(traces / f"{args.workload}.jsonl"),
    ]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    load_before = load_average()
    speed_before = reference_speed()
    times_before = cpu_times()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 5
    if run.returncode not in (0, 1) or not run.stdout.strip():
        log(f"run failed with exit code {run.returncode}")
        return 5
    out = json.loads(run.stdout.strip().splitlines()[-1])
    report = out["report"]
    if report["build_type"] != "Release" or report["assertions"]:
        log("questbench was not built as Release")
        return 4
    report["machine"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load_average_before": load_before,
        "load_average_after": load_average(),
        "steal_share_during_run": steal_share(times_before, cpu_times()),
        "reference_loop_mops_before": speed_before,
        "reference_loop_mops_after": reference_speed(),
        "build_type": build_type,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(out["result"]), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
