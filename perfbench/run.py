#!/usr/bin/env python3
"""Run one workload of the lhrlab benchmark.

    python3 perfbench/run.py --workload studies|grid|serve \
        --seed N --seconds S --trace 0|1

Builds the lab and the benchmark binary from the checkout's sources
into .bench_build/ (Release, once; later runs rebuild incrementally),
then runs it. Its stdout is passed through: the last line is
the JSON result. Build output goes to .bench_build/build.log.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "perfbench")
# One run must end well inside the 180 s it is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build the two binaries the runs need."""
    for needed in ("src/CMakeLists.txt", "examples/lhrlab.cc",
                   "tests/golden"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a lab checkout: %s is missing" % needed)
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", CMAKE_BUILD, "-j", "4",
                      "--target", "lhrlab", "perfbench"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                fail("build failed: %s (see %s)" % (" ".join(step),
                                                     log_path))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["studies", "grid", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    # Relative to ROOT, the benchmark's working directory: the daemon's
    # socket path must fit in a sockaddr_un however deep the checkout.
    work = os.path.join(".bench_build", "work", args.workload)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    command = [os.path.join(CMAKE_BUILD, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--lhrlab", os.path.join(CMAKE_BUILD, "lhrlab"),
               "--work", work,
               "--golden", os.path.join("tests", "golden"),
               "--contract", "BENCHMARK.json"]
    sys.stdout.flush()
    try:
        code = subprocess.call(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
