#!/usr/bin/env python3
"""Builds and runs the trajsearch service benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload porto-interactive --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the library
plus the benchmark binary) in .bench_build/perfbench; later calls only
re-run the incremental build. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Snapshots and other scratch files
go to .bench_build/work. The exit code is the benchmark's; a failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
BINARY = BUILD / "perfbench"
# The benchmark itself is time-bounded; this only guards against a hang.
RUN_TIMEOUT_S = 170


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "3"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workdir", str(WORK)] + sys.argv[1:]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
