#!/usr/bin/env python3
"""Wall-clock benchmark of the MFBC library (see wallbench/README.md).

Builds the benchmark binary from source into .bench_build/ at the repository root on
first use, runs one workload at one seed, and relays the binary's output.
The last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

usage: python3 wallbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--size full|small] [--perturb]

Exit status: 0 when every checked operation passed, 1 when a check failed
(the result line is still printed), 2 when the binary could not be built or
run (no result line).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK_DIR = os.path.join(BUILD, "work")
BINARY = os.path.join(CMAKE_DIR, "wallbench")
WORKLOADS = ("rmat-p16", "er-weighted-seq", "serve-churn")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[wallbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "wallbench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: tiny graphs, for the benchmark's own tests")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one lambda before its check (self-test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--size", args.size]
    if args.perturb:
        cmd.append("--perturb")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"wallbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 2
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"wallbench printed no result (exit {done.returncode})")
        sys.stdout.write(done.stdout)
        return 2
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    print(json.dumps(result), flush=True)
    if done.returncode == 0 and result["correct"]:
        return 0
    return 1 if done.returncode in (0, 1) else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
