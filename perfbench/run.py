#!/usr/bin/env python3
"""Builds and runs the wire-level serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tc-hot --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the
repository's sources, the stock whyprov_server, and the load generator)
under .bench_build/perfbench. Each run works in a fresh directory under
.bench_build/ that is removed afterwards. The load generator's report
goes to standard error; the last line of standard output is the JSON
result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out",
                        help="Chrome trace-event JSON of the traced run")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_root = os.path.join(os.getcwd(), ".bench_build")
    os.makedirs(build_root, exist_ok=True)
    build_dir = build(build_root)
    if build_dir is None:
        return 2
    loadgen = os.path.join(build_dir, "perfbench_loadgen")
    if args.selftest:
        return subprocess.run([loadgen, "--selftest"]).returncode

    workdir = tempfile.mkdtemp(prefix="run-", dir=build_root)
    command = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(build_dir, "whyprov_server"),
               "--workdir", workdir]
    if args.trace:
        trace_out = args.trace_out or os.path.join(
            build_root, "trace-%s-%d.json" % (args.workload, args.seed))
        command += ["--trace-out", trace_out]
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
