#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dblp-0.15 --seed 1 --seconds 20 --trace 0

The first run configures and builds the benchmark and autoac_serve from
source into .bench_build (CARGO_TARGET_DIR names another directory when set);
later runs only rebuild what changed. The last line of standard output is the
JSON result. `--selftest` builds and runs the benchmark's own unit tests.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(targets):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j4", "--target"] + targets]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = str(e)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                sys.stderr.write(tail + "\nperfbench: build step failed (%s): %s\n"
                                 % (rc, " ".join(cmd)))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if args.selftest:
        if not build(["perfbench_test"]):
            return 1
        return subprocess.call([os.path.join(out, "perfbench_test")])
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["perfbench", "autoac_serve"]):
        return 1
    work = os.path.join(out, "perfbench-runs")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace,
           "--serve_bin=" + os.path.join(out, "autoac", "cli", "autoac_serve"),
           "--out_dir=" + work]
    try:
        return subprocess.call(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
