#!/usr/bin/env python3
"""Determinism self-check of the benchmark's one-worker device workloads.

    python3 perfbench/selfcheck.py

Runs the traced (per-layer) mode of device_churn and device_pressure twice
with seed SEED and requires identical per-layer counts and fail_frac
(time-valued metrics are skipped). Then runs both workloads once more, in
both modes, on FRESH_SEED, which was not used while tuning and must run
clean. Also checks that BENCHMARK.json lists exactly the per-layer
metrics the benchmark prints. Exit 0 when every check passes.
"""
import json
import sys

import run as bench

SEED = 1
FRESH_SEED = 90210
SECONDS = 6

# Per-layer metrics derived from time or from how many episodes fit in the
# run, so they legitimately differ between runs (metrics in s or ns are
# skipped by unit).
NOT_COUNTS = {"trace.overhead_ratio", "ledger.call_self_share",
              "ledger.call_self_over_span", "op_lat.samples",
              "op_lat.suspended_frac"}


def metrics(workload, seed, seconds, trace):
    rc, out = bench.run_workload(workload, seed, seconds, trace)
    res = bench.result_of(out)
    if rc != 0 or res is None or not res["correct"]:
        print(f"FAIL {workload} seed {seed} trace {trace}: exit {rc}")
        return None
    return res["metrics"]


def main():
    if not bench.build():
        return 2
    ok = True

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in ("device_churn", "device_pressure"):
        a = metrics(w, SEED, SECONDS, 1)
        b = metrics(w, SEED, SECONDS, 1)
        if a is None or b is None:
            ok = False
            continue
        printed = {k: v["unit"] for k, v in a.items()}
        if printed != listed:
            print(f"FAIL {w}: printed per-layer metrics differ from "
                  f"BENCHMARK.json: {sorted(set(printed) ^ set(listed))}")
            ok = False
        diff = [k for k in a if k not in NOT_COUNTS
                and a[k]["unit"] not in ("s", "ns")
                and a[k]["value"] != b[k]["value"]]
        compared = sum(1 for k in a if k not in NOT_COUNTS
                       and a[k]["unit"] not in ("s", "ns"))
        if diff:
            print(f"FAIL {w} seed {SEED}: counts differ between two "
                  f"runs: " + ", ".join(
                      f"{k} {a[k]['value']} vs {b[k]['value']}" for k in diff))
            ok = False
        else:
            print(f"ok   {w} seed {SEED}: {compared} per-layer counts "
                  f"identical on two runs (fail_frac "
                  f"{a['fail_frac']['value']})")

    for w in ("device_churn", "device_pressure"):
        for trace in (0, 1):
            m = metrics(w, FRESH_SEED, SECONDS, trace)
            if m is None:
                ok = False
            else:
                print(f"ok   {w} fresh seed {FRESH_SEED} trace {trace} "
                      f"ran clean")
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
