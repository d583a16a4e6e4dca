#!/usr/bin/env python3
"""Builds the serving benchmark (Release) and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fo_hot --seed 1 --seconds 10 --trace 0

The build lands in $CARGO_TARGET_DIR (default .bench_build) and is reused
by later runs. Build output goes to stderr; the benchmark's stdout is passed
through unchanged, so its last line is the JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fo_hot", "fo_write", "conp_hard", "answers_stream")

# Workloads run with one glibc malloc arena. On the request/response
# workloads, memory is allocated and freed across many short-lived I/O
# threads, and which arenas those threads get is settled by contention at
# start-up and kept for the process: with the default, fo_hot throughput
# measured 18k to 39k solves/s from run to run on the same seed, and 33-34k
# with one arena. answers_stream allocates almost only in its two workers,
# is steady with the default (35-38 streams/s), and one shared arena would
# halve its throughput, so it keeps the default.
SINGLE_ARENA = ("fo_hot", "fo_write", "conp_hard")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    work_dir = os.path.join(build_dir, "work")

    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return 2
    build = ["cmake", "--build", build_dir, "-j", "4"]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        return 2

    os.makedirs(work_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work_dir]
    env = dict(os.environ)
    if args.workload in SINGLE_ARENA:
        env["MALLOC_ARENA_MAX"] = "1"
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
