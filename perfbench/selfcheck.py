#!/usr/bin/env python3
"""Steadiness self-check: two sets of runs of the same build, compared.

    python3 perfbench/selfcheck.py [--runs 10] [--workload NAME ...]
                                   [--held-out]

Runs perfbench/run.py `--runs` times per set on each workload with tracing
off, for BENCHMARK.json's run_seconds, one seed per run (set A uses seeds
101..100+runs, set B the next `--runs` seeds), alternating the sets run by
run.  For every end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and whether set
B's median is within the metric's BENCHMARK.json bound of set A's.  Exits 1
if any spread exceeds its bound or any median moved by more than its bound.
--held-out runs the single held-out seed once per workload instead, to
re-check a claim on a seed not used while writing it.

Run from the repository root.  Results also go to
.bench_build/perfbench-selfcheck.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEV_SEED = 1             # the seed used while developing a change
HELD_OUT_SEED = 918273   # reserved for re-checking claims; do not tune on it
SEED_BASE = 100          # self-check seeds start just above this


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{r.returncode}")
    return json.loads(lines[-1])


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(a, b, better):
    """Share of a by which b is worse than a (negative = better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    if args.held_out:
        for w in workloads:
            r = run_once(w, HELD_OUT_SEED, seconds)
            values = {k: v["value"] for k, v in r["metrics"].items()}
            print(w, json.dumps(values))
        return 0

    record = {}
    ok = True
    for w in workloads:
        sets = ([], [])
        for i in range(args.runs):
            for s, runs in enumerate(sets):
                seed = SEED_BASE + s * args.runs + i + 1
                runs.append(run_once(w, seed, seconds))
        record[w] = sets
        print(f"\n== {w}: {args.runs} runs per set")
        print(f"{'metric':26} {'set':3} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in runs]
                    for runs in sets]
            meds = []
            for s, v in enumerate(vals):
                med, q1, q3, spread = stats(v)
                meds.append(med)
                bound = m["bound"]
                verdict = ("ok" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "NOISY")
                ok &= spread <= bound
                print(f"{m['name']:26} {'AB'[s]:3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound:>6}  {verdict}")
            moved = worse_by(meds[0], meds[1], m["better"])
            agree = moved <= m["bound"]
            ok &= agree
            print(f"{'':26} B vs A: {moved:+.3f} of A's median -> "
                  f"{'agrees' if agree else 'DISAGREES'}")
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build",
                           "perfbench-selfcheck.json"), "w") as f:
        json.dump(record, f)
    print("\nself-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
