#!/usr/bin/env python3
"""Build and run the toma repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from this source tree) in
Release mode under .bench_build/perfbench, runs one workload and passes
its output through. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; ledger files and span
CSVs land in .bench_build/perfbench/out. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "toma_perfbench"
WORKLOADS = ("device_churn", "device_pressure", "host_tenants",
             "device_contended")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; on timeout kill the whole group
    and wait for it. Returns (returncode or None on timeout, stdout).
    Temporary files (the compiler's, for one) stay inside the build tree."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen(cmd, start_new_session=True, env=env, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build():
    """Configure (once) and build; False with a message on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: the library sources (CMakeLists.txt, src/) are "
              "missing next to perfbench/", file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            rc, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=f,
                              stderr=subprocess.STDOUT)
            if rc != 0:
                print(f"perfbench: build step failed: {' '.join(cmd)} "
                      f"(see {log})", file=sys.stderr)
                return False
    return BINARY.is_file()


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    rc, out = run_group(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 30,
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        text=True)
    return out.strip() if rc == 0 and out else "unknown"


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (returncode, stdout text)."""
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir), "--commit", commit()]
    rc, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                        text=True, cwd=str(ROOT))
    if rc is None:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s, killed",
              file=sys.stderr)
        return 1, ""
    return rc, out


def result_of(stdout):
    """The result object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not build():
        return 2
    rc, out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc != 0:
        return rc
    return 0 if result_of(out) is not None else 1


if __name__ == "__main__":
    sys.exit(main())
