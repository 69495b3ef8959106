#!/usr/bin/env python3
"""Build and run nbctune's host-performance benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
library and the perfbench binary (Release) under .bench_build/perfbench;
later calls rebuild incrementally.  The binary runs in its own process, so
peak RSS and allocator state never carry over between workloads.  The last
line of stdout is the binary's JSON result; build logs and the human-readable
metric table go to stderr.  Exits non-zero, without a result line, when the
build fails or the output does not match BENCHMARK.json; exits 1, after the
result line, when any output check failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build the binary; False on any failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                log(f"build step failed ({r.returncode}): {' '.join(cmd)}")
                return False
    return True


def check_metrics(result, expected):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        log(f"metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
        return False
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            log(f"{name}: unit {got[name].get('unit')!r} != {unit!r}")
            return False
        if not isinstance(got[name].get("value"), (int, float)):
            log(f"{name}: value is not a number")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    if not build():
        return 3

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        log(f"perfbench exited {r.returncode} without a result")
        return 5
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench's last line is not JSON")
        return 5
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not check_metrics(result, expected):
        return 6
    print(json.dumps(result), flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
