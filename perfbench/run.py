#!/usr/bin/env python3
"""Builds the MINOS benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

The benchmark and the library it drives are compiled with CMake into
.bench_build/perfbench under the current directory; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's:
non-zero when the build fails, the arguments are wrong, or an output
check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds the benchmark; returns the binary or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "minos_perfbench",
         "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "minos_perfbench")


def main(argv):
    binary = build(os.path.join(os.getcwd(), ".bench_build", "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
