#!/usr/bin/env python3
"""Measure what the always-on telemetry costs the repository benchmark.

    python3 tools/telemetry_cost.py [--quick]

Builds perfbench/ twice in Release, with -DTOMA_TELEMETRY=ON and OFF, in
.bench_build/telemetry_on and .bench_build/telemetry_off (nothing under
perfbench/ is touched). Then, for every BENCHMARK.json workload, runs
PAIRS alternating ON/OFF pairs of SECONDS each (the order flips every
pair; pair i runs both arms on seed SEED_BASE + i) and
prints, for each end-to-end metric BENCHMARK.json lists, the median of the
ON runs, the median of the OFF runs and the OFF/ON ratio of the medians.
An ops_per_s ratio above 1, or a latency ratio below 1, is what the
telemetry costs.

--quick is a smoke test: one 2 s pair per workload. It checks that both
builds run every workload and report "correct": true, and gates no
wall-clock number. Exit status: 0 when every run was correct, 1 when
one was not, 2 when a build failed.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SRC = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
ARMS = ("on", "off")
PAIRS = 3
SECONDS = 12
SEED_BASE = 1
BUILD_TIMEOUT_S = 900
RUN_GRACE_S = 150


def build(arm):
    """Configure (once) and build one arm; its binary, or None."""
    out = BUILD_ROOT / f"telemetry_{arm}"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_SRC), "-B", str(out), *gen,
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DTOMA_TELEMETRY={arm.upper()}"])
    steps.append(["cmake", "--build", str(out), "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as f:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                print(f"telemetry_cost: build failed: {' '.join(cmd)} "
                      f"(see {log})", file=sys.stderr)
                return None
    binary = out / "toma_perfbench"
    return binary if binary.is_file() else None


def run(binary, arm, workload, seed, seconds):
    """One run; its result object ({"correct", ..., "metrics"}) or None."""
    out_dir = BUILD_ROOT / f"telemetry_{arm}" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--out-dir", str(out_dir), "--commit", f"telemetry-{arm}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=str(ROOT), timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smoke: one 2 s pair per workload, correctness "
                         "only")
    args = ap.parse_args()
    pairs, seconds = (1, 2) if args.quick else (PAIRS, SECONDS)

    binaries = {arm: build(arm) for arm in ARMS}
    if any(b is None for b in binaries.values()):
        return 2

    all_correct = True
    print(f"telemetry cost: {pairs} alternating pair(s) of "
          f"{seconds} s per workload; ratio = OFF/ON of the medians")
    for w in workloads:
        runs = {arm: [] for arm in ARMS}
        for i in range(pairs):
            order = ARMS if i % 2 == 0 else ARMS[::-1]
            for arm in order:
                res = run(binaries[arm], arm, w, SEED_BASE + i, seconds)
                ok = res is not None and res.get("correct") is True
                if not ok:
                    all_correct = False
                    print(f"FAIL {w} telemetry={arm.upper()} seed "
                          f"{SEED_BASE + i}: no correct result")
                    continue
                runs[arm].append({k: v["value"]
                                  for k, v in res["metrics"].items()})
        print(f"\n{w}")
        print(f"  {'metric':<18} {'ON median':>12} {'OFF median':>12} "
              f"{'OFF/ON':>8}")
        for m in metrics:
            on = [r[m] for r in runs["on"] if m in r]
            off = [r[m] for r in runs["off"] if m in r]
            if not on or not off:
                continue
            mon, moff = statistics.median(on), statistics.median(off)
            ratio = f"{moff / mon:8.3f}" if mon else f"{'-':>8}"
            print(f"  {m:<18} {mon:12.4g} {moff:12.4g} {ratio}")
    print("\nall runs correct" if all_correct else "\nSOME RUNS FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
