#!/usr/bin/env python3
"""Build the perfbench binary from the repository sources, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload attach --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/ at the repository root (configured once,
rebuilt incrementally). Build output goes to stderr, so the last line of
stdout is the binary's JSON result. Every argument is passed through to
the binary; see perfbench.cpp for their meaning.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"


def build():
    """Configure (first time only) and build; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "xemem", "kernel.hpp")):
        sys.exit("perfbench: repository sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
