#!/usr/bin/env python3
"""Negative-compilation self-test: the analyses must reject seeded bugs.

Two suites, selected by --suite:

  tsa    Compiles tsa_cases.cc once per TRAJ_NC_CASE_* macro with
         `<clang++> -fsyntax-only -Wthread-safety -Werror` and asserts the
         build FAILS (the seeded locking violation is caught), plus one
         control compile with no macro that must SUCCEED. Registered by
         CMake only when the configured compiler is Clang — the analysis
         does not exist elsewhere.

  lint   Runs tools/lint.py over each lint/*.cc sample (via --as, so the
         path-scoped rules see production-looking paths) and asserts exit 1
         with the expected rule id in the output; then asserts the real
         tree is clean. Runs under any toolchain.

A "violation" that passes means the gate has silently stopped proving
anything; that regression — not the violations themselves — is what this
test catches.

Exit status: 0 all expectations met, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

TSA_CASES = [
    "TRAJ_NC_CASE_GUARDED_NO_LOCK",
    "TRAJ_NC_CASE_REQUIRES_NOT_HELD",
    "TRAJ_NC_CASE_DOUBLE_UNLOCK",
    "TRAJ_NC_CASE_SEQLOCK_STORE_OUTSIDE_WRITE",
    "TRAJ_NC_CASE_EXCLUDES_VIOLATED",
    "TRAJ_NC_CASE_LOCK_LEAK",
    "TRAJ_NC_CASE_WRITE_UNDER_READER_LOCK",
]

# sample file -> (repo-relative path to check it as, expected rule id)
LINT_CASES = {
    "raw_mutex.cc": ("src/example.cc", "raw-mutex"),
    "naked_new.cc": ("src/example.cc", "naked-new"),
    "relaxed_outside.cc": ("src/example.cc", "relaxed-order"),
    "relaxed_uncommented.cc": ("src/obs/metrics.h", "relaxed-order"),
    "minmax_double.cc": ("src/distance/example.h", "minmax-double"),
    "raw_mmap.cc": ("src/example.cc", "raw-mmap"),
}


def run_tsa(compiler: str) -> int:
    src = os.path.join(HERE, "tsa_cases.cc")
    base = [
        compiler, "-std=c++20", "-fsyntax-only", "-Wthread-safety",
        "-Werror", "-I", os.path.join(REPO, "src"), src,
    ]
    failures = 0

    control = subprocess.run(base, capture_output=True, text=True)
    if control.returncode != 0:
        print(f"FAIL control: clean tsa_cases.cc did not compile:\n"
              f"{control.stderr}")
        failures += 1
    else:
        print("ok   control: annotations compile cleanly")

    for case in TSA_CASES:
        proc = subprocess.run(base + [f"-D{case}"], capture_output=True,
                              text=True)
        if proc.returncode == 0:
            print(f"FAIL {case}: seeded violation COMPILED — the "
                  f"thread-safety gate is not catching this class")
            failures += 1
        elif "-Wthread-safety" not in proc.stderr \
                and "thread-safety" not in proc.stderr:
            print(f"FAIL {case}: compile failed for a non-TSA reason:\n"
                  f"{proc.stderr}")
            failures += 1
        else:
            print(f"ok   {case}: rejected by the analysis")
    return failures


def run_lint(python: str) -> int:
    lint = os.path.join(REPO, "tools", "lint.py")
    failures = 0
    for sample, (as_rel, rule) in sorted(LINT_CASES.items()):
        src = os.path.join(HERE, "lint", sample)
        proc = subprocess.run(
            [python, lint, "--as", as_rel, src],
            capture_output=True, text=True,
        )
        if proc.returncode != 1:
            print(f"FAIL {sample}: expected exit 1, got {proc.returncode}:\n"
                  f"{proc.stdout}{proc.stderr}")
            failures += 1
        elif rule not in proc.stdout:
            print(f"FAIL {sample}: expected rule '{rule}' in output:\n"
                  f"{proc.stdout}")
            failures += 1
        else:
            print(f"ok   {sample}: {rule} fired")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=["tsa", "lint"], required=True)
    parser.add_argument("--compiler", default=os.environ.get("CXX", "clang++"),
                        help="C++ compiler for the tsa suite")
    args = parser.parse_args()

    if args.suite == "tsa":
        failures = run_tsa(args.compiler)
    else:
        failures = run_lint(sys.executable)

    if failures:
        print(f"negative-compile[{args.suite}]: {failures} FAILURE(S)")
        return 1
    print(f"negative-compile[{args.suite}]: all expectations met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
