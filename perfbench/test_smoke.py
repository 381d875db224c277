#!/usr/bin/env python3
"""The benchmark's own test: every workload at its smoke size, both modes.

    python3 perfbench/test_smoke.py

Run from the repository root. For each workload it runs perfbench/run.py
with --smoke, untraced and traced, and requires exit status 0, a correct
result with no failed operation, the metric names of BENCHMARK.json, and
nonzero end-to-end metrics. It then runs the benchmark in a directory that
holds only BENCHMARK.json and perfbench/, where it must fail without
printing a result. Takes a minute or two, most of it the first build.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root, workload, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=root, timeout=900)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, w, trace)
            tag = f"{w} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            names = [m["name"] for m in
                     spec["per_layer" if trace else "end_to_end"]]
            if list(result["metrics"]) != names:
                problems.append(f"{tag}: metric names differ")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if not trace:
                zero = [n for n, m in result["metrics"].items()
                        if m["value"] <= 0]
                if zero:
                    problems.append(f"{tag}: nonpositive metrics {zero}")
            print(f"ok   {tag}: {result['attempted']} operations",
                  flush=True)

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bare directory: expected a failure and no "
                            "result")
        else:
            print("ok   bare directory fails without a result")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
