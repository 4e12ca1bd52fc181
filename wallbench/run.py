#!/usr/bin/env python3
"""Builds and runs the xorbits wall-clock benchmark.

Usage, from the root of a checkout:

    python3 wallbench/run.py --workload <pipelines|tpch|serving|pressure> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the engine and the benchmark under
`.bench_build/` (later calls only check that the build is up to date), then
runs the benchmark in a scratch directory under `.bench_build/` that is
removed afterwards. The last line of standard output is the benchmark's
JSON result; see wallbench/README.md for the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "wallbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to wallbench/")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "wallbench",
           "--", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "wallbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["pipelines", "tpch", "serving", "pressure"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1
    if binary is None:
        log("build failed")
        return 1

    workdir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS or result["correct"] is not True:
        sys.stderr.write(proc.stdout)
        log("benchmark failed (exit code %d)" % proc.returncode)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
