#!/usr/bin/env python3
"""Repository lint for the Nemesis self-paging reproduction.

Three textual rules that need no semantic analysis:

1. Raw `new` / `delete` are confined to src/base/ (the small-buffer
   machinery). Everywhere else, allocation must go through std::make_unique
   or an adjacent std::unique_ptr<...>(new ...) adoption (used where a
   constructor is private to a factory).

2. Include hygiene: project includes are quoted and rooted at src/ (no
   relative ".." paths), and every header carries an include guard derived
   from its path (SRC_FOO_BAR_H_).

3. No threads: src/ neither includes <thread> nor names std::thread or
   std::jthread. The simulator is one serial event loop and CI runs no
   ThreadSanitizer job; code that starts a thread must bring that job back
   in the same change.

The former regex rules for RamTab mutation confinement, FrameStack
membership confinement and ad-hoc uint64_t statistics members moved to
tools/analyze.py (authority-ramtab / authority-framestack / authority-stats),
which resolves receiver types from the AST instead of matching substrings.

Run from the repository root:  python3 tools/lint.py
Exits non-zero and prints one line per violation otherwise.
"""

import os
import re
import sys

SRC = "src"

# Rule 1: raw allocation. `= delete`d special members, <new> includes and
# comments are not allocations.
RAW_NEW = re.compile(r"\bnew\b")
RAW_DELETE = re.compile(r"\bdelete\b")
DELETED_FN = re.compile(r"=\s*delete\s*;")
# A `new` adopted straight into a unique_ptr (possibly with the unique_ptr on
# the previous line, as clang-format splits long factory expressions).
UNIQUE_PTR_ADOPTION = re.compile(r"(unique_ptr\s*<|make_unique|\.reset\s*\()")

# Rule 2: include hygiene.
QUOTED_INCLUDE = re.compile(r'#include\s+"([^"]+)"')

# Rule 3: no threads.
THREAD_USE = re.compile(r"#include\s*<thread>|\bstd::j?thread\b")


def strip_comment(line):
    return line.split("//", 1)[0]


def lint_file(path, errors):
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()

    rel = os.path.relpath(path)
    in_base = rel.startswith(os.path.join("src", "base") + os.sep)
    is_header = rel.endswith(".h")

    prev_code = ""
    for lineno, raw in enumerate(lines, start=1):
        code = strip_comment(raw)

        # --- Rule 1: raw new/delete outside src/base/ -----------------------
        if not in_base:
            if RAW_NEW.search(code):
                adopted = UNIQUE_PTR_ADOPTION.search(code) or UNIQUE_PTR_ADOPTION.search(
                    prev_code)
                if not adopted:
                    errors.append(f"{rel}:{lineno}: raw `new` outside src/base/ "
                                  "(use std::make_unique or adopt into a unique_ptr)")
            if RAW_DELETE.search(code) and not DELETED_FN.search(code):
                errors.append(f"{rel}:{lineno}: raw `delete` outside src/base/")

        # --- Rule 2a: project includes rooted at src/ -----------------------
        m = QUOTED_INCLUDE.search(code)
        if m:
            inc = m.group(1)
            if ".." in inc or not inc.startswith("src/"):
                errors.append(f"{rel}:{lineno}: quoted include \"{inc}\" must be "
                              "rooted at src/ (no relative paths)")

        # --- Rule 3: no threads ---------------------------------------------
        if THREAD_USE.search(code):
            errors.append(f"{rel}:{lineno}: threads in src/ (the simulator is one serial "
                          "event loop; a threaded path must bring back the TSan CI job)")

        if code.strip():
            prev_code = code

    # --- Rule 2b: include guards match the path -----------------------------
    if is_header:
        guard = rel.upper().replace(os.sep, "_").replace(".", "_").replace("-", "_") + "_"
        text = "".join(lines)
        if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
            errors.append(f"{rel}:1: missing or mismatched include guard (expected {guard})")


def main():
    if not os.path.isdir(SRC):
        print("lint.py: run from the repository root", file=sys.stderr)
        return 2
    errors = []
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith((".h", ".cc")):
                lint_file(os.path.join(root, name), errors)
    for e in errors:
        print(e)
    if errors:
        print(f"lint.py: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
