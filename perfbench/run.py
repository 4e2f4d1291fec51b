#!/usr/bin/env python3
"""Build and run the vbr host-performance benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Workloads: uni-compute, uni-memory, mp-4core, trace-replay (see
perfbench/src/workloads.hpp). The first run configures and builds the
simulator library and the benchmark from source into
.bench_build/perfbench (CMake, Release); later runs only re-check
it. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit status is the benchmark's: 0 only
when its outputs are correct.

The benchmark's own tests (arithmetic and parity with runSimJob):

    cmake --build .bench_build/perfbench --target perfbench_test
    .bench_build/perfbench/perfbench_test
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build; False when either step fails."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # The simulator reads VBR_* knobs (threads, fast-forward, faults,
    # trace capture) from the environment; the benchmark measures the
    # defaults, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VBR_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".perfbench_out")]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
