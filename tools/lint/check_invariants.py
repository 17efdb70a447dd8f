#!/usr/bin/env python3
"""Repo-invariant linter: contracts the compiler cannot check.

The build enforces types and (under clang) lock discipline; this
linter enforces the *stringly-typed* contracts that silently rot
instead of failing to compile:

  1. fault-point parity — every `fault::point("name")` call site in
     src/ uses a name from the canonical registry
     (src/common/fault_points.hpp), and every registry name has at
     least one src/ call site. A typo in either direction means a
     fault storm arms a point that never fires. Test files may arm
     extra, test-local points, but only if the same file also hits
     them with `fault::point("name")`.
  2. raw-sync ban — src/ code (outside common/sync.hpp) must not
     name std:: synchronisation primitives directly: the mutex,
     lock and condition-variable types, and C++20's barrier, latch
     and semaphores. The annotated wrappers in common/sync.hpp are
     what make clang's -Wthread-safety analysis see the locking at
     all; a raw std::mutex is a hole in the static lock-discipline
     proof, and the analysis cannot see a barrier or semaphore.
  3. no inline Python in CI — the workflow runs no `python3 -`
     heredoc (or `python3 -c`) script. A gate written inline runs only
     in CI and cannot be run locally with one command; gates belong in
     ctest entries or checked-in scripts that CI calls by path.
  4. tsan test-selection parity — each alternative in the tsan job's
     `ctest -R "a|b|c"` regex must name an existing tests/<name>.cpp,
     so a renamed suite cannot silently drop out of the race net.

Usage: tools/lint/check_invariants.py [--root DIR]
Exit status: 0 clean, 1 findings (one per line on stdout), 2 usage.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Helpers


def strip_comments(source: str) -> str:
    """Removes // and /* */ comments so commented-out code (or prose
    mentioning `fault::point("...")` / std::mutex) never trips a rule.
    Line/column structure is preserved for everything kept."""
    out: list[str] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and source[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            end = source.find("*/", i + 2)
            newlines = source.count("\n", i, n if end < 0 else end + 2)
            out.append("\n" * newlines)
            i = n if end < 0 else end + 2
        elif c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and source[i] != quote:
                if source[i] == "\\" and i + 1 < n:
                    out.append(source[i : i + 2])
                    i += 2
                    continue
                out.append(source[i])
                i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def cxx_files(root: Path, subdir: str) -> list[Path]:
    base = root / subdir
    if not base.is_dir():
        return []
    return sorted(
        p for ext in ("*.cpp", "*.hpp", "*.h", "*.cc")
        for p in base.rglob(ext)
    )


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


class Findings:
    def __init__(self) -> None:
        self.items: list[str] = []

    def add(self, path: Path, line: int | None, message: str) -> None:
        where = f"{path}:{line}" if line else str(path)
        self.items.append(f"{where}: {message}")


# ---------------------------------------------------------------------------
# Rule 1: fault-point name parity

POINT_CALL = re.compile(r'fault::point\(\s*"([^"]+)"\s*\)')
SPEC_POINT = re.compile(r'\.point\s*=\s*"([^"]+)"')
REGISTRY_NAME = re.compile(r'"([^"]+)"\s*,?')


def registry_names(root: Path, findings: Findings) -> set[str]:
    path = root / "src" / "common" / "fault_points.hpp"
    if not path.is_file():
        findings.add(path, None, "canonical fault-point registry missing")
        return set()
    text = strip_comments(path.read_text(encoding="utf-8"))
    match = re.search(r"kAll\[\]\s*=\s*\{(.*?)\}", text, re.DOTALL)
    if not match:
        findings.add(path, None, "could not parse kAll[] registry array")
        return set()
    return {m.group(1) for m in REGISTRY_NAME.finditer(match.group(1))}


def check_fault_points(root: Path, findings: Findings) -> None:
    registered = registry_names(root, findings)
    if not registered:
        return

    used: set[str] = set()
    for path in cxx_files(root, "src"):
        if path.name == "fault_points.hpp":
            continue
        text = strip_comments(path.read_text(encoding="utf-8"))
        for m in POINT_CALL.finditer(text):
            name = m.group(1)
            used.add(name)
            if name not in registered:
                findings.add(
                    path, line_of(text, m.start()),
                    f'fault::point("{name}") is not in the canonical '
                    "registry (src/common/fault_points.hpp) — typo'd "
                    "names silently never fire",
                )
    for name in sorted(registered - used):
        findings.add(
            root / "src" / "common" / "fault_points.hpp", None,
            f'registered fault point "{name}" has no src/ call site — '
            "drop it from kAll[] or plant the hook",
        )

    # Tests may arm test-local points, but only ones the same file
    # also hits — arming a name nothing calls is the silent-typo bug
    # the registry exists to prevent.
    for path in cxx_files(root, "tests"):
        text = strip_comments(path.read_text(encoding="utf-8"))
        local_hits = {m.group(1) for m in POINT_CALL.finditer(text)}
        for m in SPEC_POINT.finditer(text):
            name = m.group(1)
            if name not in registered and name not in local_hits:
                findings.add(
                    path, line_of(text, m.start()),
                    f'FaultSpec arms "{name}", which is neither in the '
                    "canonical registry nor hit via fault::point() in "
                    "this file — the spec can never fire",
                )


# ---------------------------------------------------------------------------
# Rule 2: raw std:: synchronisation primitives outside common/sync.hpp

RAW_SYNC = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|shared_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable(?:_any)?|"
    r"barrier|latch|counting_semaphore|binary_semaphore)\b"
)


def check_raw_sync(root: Path, findings: Findings) -> None:
    for path in cxx_files(root, "src"):
        if path.parent.name == "common" and path.name == "sync.hpp":
            continue  # the one place allowed to touch the raw types
        text = strip_comments(path.read_text(encoding="utf-8"))
        for m in RAW_SYNC.finditer(text):
            findings.add(
                path, line_of(text, m.start()),
                f"raw std::{m.group(1)} — use the annotated wrappers in "
                "common/sync.hpp so clang -Wthread-safety sees the lock",
            )


# ---------------------------------------------------------------------------
# Rule 3: no inline Python in the CI workflow

INLINE_PYTHON = re.compile(r"\bpython3?\s+-(?:c\b|\s|<|$)", re.MULTILINE)


def check_inline_python(root: Path, findings: Findings) -> None:
    ci = root / ".github" / "workflows" / "ci.yml"
    if not ci.is_file():
        return
    ci_text = ci.read_text(encoding="utf-8")
    for m in INLINE_PYTHON.finditer(ci_text):
        findings.add(
            ci, line_of(ci_text, m.start()),
            "inline Python in CI — move the check into a ctest entry or "
            "a checked-in script so it runs locally with one command",
        )


# ---------------------------------------------------------------------------
# Rule 4: tsan ctest -R selection names real test suites

CTEST_R = re.compile(r'ctest[^\n]*-R\s+"([^"]+)"')


def check_tsan_selection(root: Path, findings: Findings) -> None:
    ci = root / ".github" / "workflows" / "ci.yml"
    if not ci.is_file():
        return
    ci_text = ci.read_text(encoding="utf-8")
    for m in CTEST_R.finditer(ci_text):
        for name in m.group(1).split("|"):
            name = name.strip()
            if not (root / "tests" / f"{name}.cpp").is_file():
                findings.add(
                    ci, line_of(ci_text, m.start()),
                    f'ctest -R selects "{name}" but tests/{name}.cpp does '
                    "not exist — the suite silently dropped out of the "
                    "sanitizer net",
                )


# ---------------------------------------------------------------------------


def run(root: Path) -> int:
    findings = Findings()
    check_fault_points(root, findings)
    check_raw_sync(root, findings)
    check_inline_python(root, findings)
    check_tsan_selection(root, findings)
    for item in findings.items:
        print(item)
    if findings.items:
        print(f"check_invariants: {len(findings.items)} finding(s)",
              file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parents[2],
        help="repository root (default: two levels above this script)",
    )
    args = parser.parse_args(argv)
    if not args.root.is_dir():
        parser.error(f"--root {args.root} is not a directory")
    return run(args.root.resolve())


if __name__ == "__main__":
    sys.exit(main())
