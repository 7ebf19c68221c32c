#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ec2-r90|ec2-w50 [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/bench.exe from source with dune into .bench_build/ (build
chatter goes to stderr), then runs it with the same arguments. The last
line of stdout is the JSON result; the exit code is the benchmark's. See
perfbench/NOTES.md for the workloads and metrics.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "harness"))):
        sys.stderr.write("run.py: not the root of a checkout (no dune-project or lib/harness)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--display", "quiet", TARGET],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
