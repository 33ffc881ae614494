#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload ycsb_sqlite --seed 1 --seconds 15 --trace 0

Everything (each workload untraced and traced, default seed and budget):

    python3 perfbench/run.py

Run from the repository root. The first call configures and builds the
simulator library and the benchmark binary with CMake under .bench_build/
(or $CARGO_TARGET_DIR when set). The last line of stdout of a single run is
the benchmark's JSON result; the exit code is non-zero when the build fails,
an output check fails, or the result does not carry exactly the metrics
BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ycsb_sqlite", "spawn_churn", "mesh_zipf"]
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 700


def run_timeout_s(seconds):
    """Budget for one run: set-up allowance plus the timed phases, traced ones
    included (a traced run adds spans and an untraced twin of round 0)."""
    return 100 + 4 * seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds sb_perfbench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "--target", "sb_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout is reserved for results.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step exited {done.returncode}: {' '.join(cmd)}")
            return None
    binary = os.path.join(out, "sb_perfbench")
    return binary if os.path.exists(binary) else None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this trace mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", traces]
    timeout = run_timeout_s(seconds)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {timeout:g} s")
        return 124, ""
    return done.returncode, done.stdout


def check_result(stdout, trace):
    """The last stdout line must be the result with the declared metrics."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "no JSON result on the last line"
    expected = declared_metrics(trace)
    if expected is None:
        return "BENCHMARK.json is missing or unreadable"
    got = set(result.get("metrics", {}))
    if got != expected:
        return f"metrics differ from BENCHMARK.json: extra {sorted(got - expected)}, " \
               f"missing {sorted(expected - got)}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.workload:
        code, stdout = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        problem = check_result(stdout, args.trace) if stdout else "no output"
        if problem:
            # Show what ran, but no result line: the run does not count.
            print("\n".join(stdout.strip().splitlines()[:-1]))
            log(f"perfbench: {problem}")
            return code or 3
        sys.stdout.write(stdout)
        return code

    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run_one(binary, workload, args.seed, args.seconds, trace)
            problem = check_result(stdout, trace) if stdout else "no output"
            print(f"==== {workload} trace={trace} exit={code} ====")
            sys.stdout.write("\n".join(stdout.strip().splitlines()[:-1]) + "\n")
            if problem:
                log(f"perfbench: {workload} trace={trace}: {problem}")
            worst = max(worst, code, 3 if problem else 0)
    return worst


if __name__ == "__main__":
    sys.exit(main())
