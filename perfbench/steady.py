#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of untraced runs of one build.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--seconds S] [--first-seed 1]

Run from the repository root. Set k, run i uses seed
first_seed + k * runs + i, so the two sets share no input; runs alternate
between the sets so drift on the host lands on both. For every end-to-end
metric of BENCHMARK.json and every workload it prints each set's median and
quartiles (statistics.quantiles(n=4)), the spread (Q3 - Q1) / median, and the
drift of set 2's median against set 1's, signed so that positive is worse.
A metric agrees when its spread (setup_s exempt) is within its bound and its
drift is within the bound in either direction (a two-sided test: a set 2
that is better by more than the bound disagrees too); "tight" marks spreads
under a third of the bound. The failed share of operations must also be
identical in both sets. The raw values go to .bench_build/steady.json. Exit
status 1 when anything disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit "
                         f"{proc.returncode})")
    return json.loads(lines[-1]), wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=2)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    # raw[workload][set] = list of result objects
    raw = {w: [[] for _ in range(args.sets)] for w in workloads}
    walls = []
    for i in range(args.runs):
        for w in workloads:
            for k in range(args.sets):
                seed = args.first_seed + k * args.runs + i
                result, wall = run_once(w, seed, args.seconds)
                raw[w][k].append(result)
                walls.append(wall)
                print(f"  {w} set {k + 1} seed {seed}: {wall:.1f} s wall",
                      file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w} ({args.runs} runs per set, {args.seconds:g} s each)")
        print(f"  {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        shares = [sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in raw[w]]
        if len(set(shares)) != 1:
            ok = False
            print(f"  failed share differs between sets: {shares}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs])
                     for runs in raw[w]]
            for k, st in enumerate(stats):
                verdict = []
                if name != "setup_s":
                    if st["spread"] > bound:
                        verdict.append("SPREAD>BOUND")
                    elif st["spread"] < bound / 3:
                        verdict.append("tight")
                if k == 1:
                    ratio = st["median"] / stats[0]["median"]
                    drift = ratio - 1 if m["better"] == "lower" else 1 - ratio
                    verdict.append(f"drift {drift:+.3f}")
                    if abs(drift) > bound:
                        verdict.append("DRIFT>BOUND")
                if any(v.endswith(">BOUND") for v in verdict):
                    ok = False
                print(f"  {name:<14} {k + 1:>3} {st['median']:>12.6g} "
                      f"{st['q1']:>12.6g} {st['q3']:>12.6g} "
                      f"{st['spread']:>8.4f} {bound:>6.3f}  {' '.join(verdict)}")
    print(f"\nrun wall: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s over {len(walls)} runs")
    out = ROOT / ".bench_build" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": args.runs, "seconds": args.seconds,
                               "first_seed": args.first_seed, "raw": raw},
                              indent=1))
    print("steady" if ok else "NOT steady: see the marked rows")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
