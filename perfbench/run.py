#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the verified serving stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 15 --trace 0

Workloads: serve-mix, verify-batch, ingest-mix (see BENCHMARK.json and
perfbench/METRICS.md). The benchmark program and the authdb library are built
from source in Release mode under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to standard error; the last line of
standard output is the result as one JSON object. --trace 1 runs the
per-layer (traced) account instead of the end-to-end metrics and writes the
spans to .bench_build/perfbench/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mix", "verify-batch", "ingest-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the authdb sources are not next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()  # the benchmark program checks the ranges

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        trace_dir = os.path.join(build_root, "perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
