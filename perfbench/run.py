#!/usr/bin/env python3
"""Build and run one workload of the RASC end-to-end benchmark.

    python3 perfbench/run.py --workload ebpf-batch --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
libraries, rascd and the perfbench program into .bench_build/ (a plain
CMake build of perfbench/CMakeLists.txt); later runs only rebuild what
changed. The perfbench report goes to stdout; its last line is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ebpf-batch", "privilege-packages", "rascd-edit")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(deadline):
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no RASC sources next to perfbench/ (src/CMakeLists.txt missing)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "rascd"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)} exited {done.returncode}")
            return False
    return True


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    first = not os.path.isfile(os.path.join(BUILD, "perfbench"))
    deadline = start + (880 if first else 175)
    if not build(deadline):
        return 2

    work = os.path.join(BUILD, "work", args.workload)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work", work,
           "--bin", BUILD,
           "--golden", os.path.join(ROOT, "tests", "data", "ebpf")]
    # On a kill, the daemon of rascd-edit dies with perfbench
    # (PR_SET_PDEATHSIG).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("the benchmark did not finish in time")
        return 3
    out = out.rstrip("\n")
    if proc.returncode != 0 and not out.endswith("}"):
        if out:
            print(out)
        log(f"perfbench exited {proc.returncode} without a result")
        return proc.returncode or 1
    print(out, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
