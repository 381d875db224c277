#!/usr/bin/env python3
"""Builds and runs one perfbench workload; prints its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) under
.bench_build/perfbench; later calls only re-check the build. Build output
goes to standard error. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; its metric names are
checked against BENCHMARK.json. Exit status 0 only when the build succeeded
and every checked operation passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "results"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 175
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the benchmark binary; True on success."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT).returncode
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return False
    return BINARY.exists()


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None if absent."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Parses the binary's last line; returns (result, problem)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return None, f"last line is not JSON: {e}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None, f"unexpected result keys {sorted(result)}"
    names = expected_metrics(trace)
    if names is not None and list(result["metrics"]) != names:
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        return None, f"metrics differ from BENCHMARK.json: missing " \
                     f"{sorted(missing)}, extra {sorted(extra)}"
    return result, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, same checks (seconds, not minutes)")
    args = ap.parse_args()

    if not build():
        return 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out_dir", str(OUT_DIR)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1
    result, problem = check_result(lines[-1], args.trace == "1")
    if problem:
        log(problem)
        return 1
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        log(f"{args.workload}: {result['failed']} of {result['attempted']} "
            f"operations failed their checks")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
