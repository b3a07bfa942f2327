#!/usr/bin/env python3
"""Repo-specific static checks the compilers cannot express.

Driven by the CMake compilation database (compile_commands.json) so the
checked file set is exactly what the build compiles — headers are walked
from src/ directly (they appear in no database entry of their own).

Rules (each with a documented allowlist; see README "Static analysis"):

  raw-mutex      No raw std::mutex / std::lock_guard / std::unique_lock /
                 std::scoped_lock / std::shared_mutex outside util/sync.h.
                 Everything must go through the capability-annotated
                 trajsearch::Mutex/MutexLock so Clang -Wthread-safety can
                 prove the locking discipline whole-program. (std::once_flag
                 and std::call_once remain allowed — they carry no guarded
                 state the analysis could track.)

  minmax-double  No std::min/std::max on double expressions inside
                 distance/ DP kernels. The kernels' NaN semantics are
                 deliberate (a NaN cost must poison the cell, and
                 std::min(NaN, x) returns NaN or x depending on argument
                 order); the ternary idiom in distance/dp.h spells the
                 intended comparison explicitly and is what the SIMD lanes
                 mirror. Integer min/max (LCSS/EDR counts) is fine.

  naked-new      No naked `new` outside arena/pool allocators: every `new`
                 must appear in an allowlisted arena file or be immediately
                 owned (same statement constructs a unique_ptr/shared_ptr).

  relaxed-order  std::memory_order_relaxed only in allowlisted files, and
                 every use must carry a nearby `relaxed:` rationale comment
                 (same line or one of the 8 lines above). New lock-free
                 code starts from seq_cst and earns its relaxations in
                 review, with the argument written down at the site.

  raw-mmap       No raw mmap/munmap/mincore/madvise outside
                 io/mapped_file.cc — the one refcounted ownership site, so
                 a mapping can never outlive or leak past its MappedFile.
                 Everything else goes through MappedFile (and MmapSnapshot
                 on top of it).

Exit status: 0 clean, 1 violations (printed one per line), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

REPO_SUBDIRS = ("src", "tests", "bench", "examples")

# raw-mutex: the one definition site of the wrappers.
RAW_MUTEX_ALLOW = {"src/util/sync.h"}
RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)

# minmax-double applies only to the DP kernel layer.
MINMAX_DIRS = ("src/distance/",)
MINMAX_RE = re.compile(r"\bstd::(?:min|max)\s*(?:<[^>]*>)?\s*\(")
DOUBLE_HINT_RE = re.compile(
    r"\bstd::(?:min|max)\s*(?:<\s*double\s*>)?\s*\(\s*[^;]*?"
    r"(?:\bdouble\b|\d\.\d|\.0\b|d\[|cost|dist|lower|upper|bound)",
    re.IGNORECASE,
)

# minmax-double / naked-new / relaxed-order police production code only:
# tests and benches may replace operator new (plan_alloc_test) or spin on a
# relaxed stop flag without a protocol to document.
SRC_ONLY_PREFIX = "src/"

# naked-new: arena/pool files that legitimately place raw allocations
# (ownership is the surrounding container's contract, not a smart pointer).
NAKED_NEW_ALLOW = {
    "src/core/live_dataset.h",  # DeltaTable entry array
    "src/obs/trace.h",          # ring Slot array (unique_ptr member)
    "src/obs/trace.cc",
}
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (` = placement new, allowed
OWNED_SAME_STMT_RE = re.compile(
    r"(?:make_unique|make_shared|unique_ptr|shared_ptr|"
    r"\breset\s*\()[^;]*\bnew\b"
)

# relaxed-order: files whose lock-free protocols have been reviewed; every
# relaxed operation inside them still needs its written rationale.
RELAXED_ALLOW = {
    "src/util/sync.h",       # seqlock sequence words
    "src/util/simd.h",       # probe memo flags
    "src/util/scheduler.h",  # mutex-ordered pool pointer load
    "src/obs/metrics.h",     # sharded counters/gauges
    "src/obs/metrics.cc",
    "src/obs/registry.h",    # kill switch, query-id counter
    "src/obs/trace.h",       # ring claim counter
    "src/obs/trace.cc",      # ticket-seqlock payload
    "src/search/pipeline.h",  # candidate-chunk counter
}
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_COMMENT_RE = re.compile(r"relaxed\b.*:|relaxed \(")
RELAXED_COMMENT_WINDOW = 12

# raw-mmap: the one mmap ownership site. Matches the bare and ::-qualified
# calls; MADV_*/PROT_* constants alone are fine (they only mean something
# next to a call this rule already sees).
RAW_MMAP_ALLOW = {"src/io/mapped_file.cc"}
RAW_MMAP_RE = re.compile(r"(?:\b|::)(?:mmap|munmap|mincore|madvise)\s*\(")

LINE_COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_noise(line: str) -> str:
    """Drops string literals and // comments so rules match code only."""
    return LINE_COMMENT_RE.sub("", STRING_RE.sub('""', line))


def repo_files_from_compile_db(repo: str, db_path: str) -> list[str]:
    with open(db_path, encoding="utf-8") as f:
        entries = json.load(f)
    files = set()
    for entry in entries:
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"])
        )
        rel = os.path.relpath(path, repo)
        if not rel.startswith(".."):
            files.add(rel)
    # Headers never appear as database entries; walk them explicitly so the
    # rules cover declarations too.
    for subdir in REPO_SUBDIRS:
        root = os.path.join(repo, subdir)
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if name.endswith((".h", ".hpp")):
                    files.add(
                        os.path.relpath(os.path.join(dirpath, name), repo)
                    )
    return sorted(
        f for f in files
        if f.startswith(tuple(s + os.sep for s in REPO_SUBDIRS))
    )


def check_file(rel: str, text: str) -> list[str]:
    problems = []
    lines = text.splitlines()
    in_block_comment = False
    code_lines: dict[int, str] = {}  # comment/string-stripped, per line
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        # Minimal block-comment tracking: rules must not fire on prose.
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        while "/*" in line:
            start = line.find("/*")
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
        code = strip_noise(line)
        code_lines[lineno] = code
        if not code.strip():
            continue

        in_src = rel.startswith(SRC_ONLY_PREFIX)

        if rel not in RAW_MUTEX_ALLOW and RAW_MUTEX_RE.search(code):
            problems.append(
                f"{rel}:{lineno}: raw-mutex: use trajsearch::Mutex/MutexLock "
                f"from util/sync.h (raw std synchronization is banned so "
                f"-Wthread-safety covers it)"
            )

        if in_src and rel.startswith(MINMAX_DIRS) and MINMAX_RE.search(code):
            if DOUBLE_HINT_RE.search(code) or "std::min<double>" in code \
                    or "std::max<double>" in code:
                problems.append(
                    f"{rel}:{lineno}: minmax-double: spell DP-cell "
                    f"comparisons with the explicit ternary idiom "
                    f"(distance/dp.h) — std::min/max on doubles hides the "
                    f"deliberate NaN ordering"
                )

        if in_src and rel not in NAKED_NEW_ALLOW and NEW_RE.search(code):
            # The owning statement may start on earlier lines
            # (`return std::unique_ptr<T>(\n    new T(...))`): join back to
            # the previous statement boundary before deciding.
            stmt = code
            back = lineno - 1
            while back > 0 and back in code_lines:
                prev = code_lines[back]
                stmt = prev + " " + stmt
                if re.search(r"[;{}]\s*$", prev.rstrip()):
                    break
                back -= 1
            if not OWNED_SAME_STMT_RE.search(stmt):
                problems.append(
                    f"{rel}:{lineno}: naked-new: allocation is not owned in "
                    f"the same statement (wrap in make_unique/make_shared or "
                    f"allowlist the arena in tools/lint.py)"
                )

        if in_src and rel not in RAW_MMAP_ALLOW and RAW_MMAP_RE.search(code):
            problems.append(
                f"{rel}:{lineno}: raw-mmap: map files through "
                f"io/mapped_file.h (raw mmap/munmap/mincore/madvise is "
                f"confined to MappedFile so mapping lifetime is always "
                f"refcounted)"
            )

        if in_src and RELAXED_RE.search(code):
            if rel not in RELAXED_ALLOW:
                problems.append(
                    f"{rel}:{lineno}: relaxed-order: memory_order_relaxed "
                    f"outside the reviewed lock-free files (start from "
                    f"seq_cst; allowlist in tools/lint.py with a written "
                    f"rationale)"
                )
            else:
                window = lines[max(0, lineno - 1 - RELAXED_COMMENT_WINDOW):
                               lineno]
                if not any(RELAXED_COMMENT_RE.search(w) for w in window):
                    problems.append(
                        f"{rel}:{lineno}: relaxed-order: missing nearby "
                        f"'// relaxed: <why>' rationale comment"
                    )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--compile-commands",
        default="build/compile_commands.json",
        help="compilation database (default: build/compile_commands.json)",
    )
    parser.add_argument(
        "--repo", default=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
        help="repository root",
    )
    parser.add_argument(
        "files", nargs="*",
        help="check only these files (repo-relative; default: whole repo)",
    )
    parser.add_argument(
        "--as", dest="as_rel", default=None, metavar="RELPATH",
        help="treat the single given file as this repo-relative path "
             "(negative-compile self-tests use it to exercise "
             "path-scoped rules)",
    )
    args = parser.parse_args()

    repo = os.path.abspath(args.repo)
    if args.as_rel is not None:
        if len(args.files) != 1:
            print("lint.py: --as requires exactly one file", file=sys.stderr)
            return 2
        with open(args.files[0], encoding="utf-8") as f:
            problems = check_file(args.as_rel.replace(os.sep, "/"), f.read())
        for problem in problems:
            print(problem)
        if problems:
            print(f"lint.py: {len(problems)} violation(s)", file=sys.stderr)
            return 1
        print("lint.py: 1 file clean")
        return 0
    if args.files:
        files = [os.path.relpath(os.path.abspath(f), repo) for f in args.files]
    else:
        db = args.compile_commands
        if not os.path.isabs(db):
            db = os.path.join(repo, db)
        if not os.path.exists(db):
            print(
                f"lint.py: compilation database not found: {db} "
                f"(configure with cmake first)", file=sys.stderr,
            )
            return 2
        files = repo_files_from_compile_db(repo, db)

    problems = []
    for rel in files:
        path = os.path.join(repo, rel)
        if not os.path.exists(path) or not rel.endswith(
                (".h", ".hpp", ".cc", ".cpp")):
            continue
        with open(path, encoding="utf-8") as f:
            problems.extend(check_file(rel.replace(os.sep, "/"), f.read()))

    for problem in problems:
        print(problem)
    if problems:
        print(f"lint.py: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint.py: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
