#!/usr/bin/env python3
"""Self-test for check_invariants.py.

A linter that cannot fail is decoration: the core of this suite is a
negative fixture tree — a miniature repo with a misnamed fault point
and a raw std::mutex — asserting the linter flags *both*, plus
positive fixtures pinning that the allowed patterns (sync.hpp's own
raw primitives, test-local armed-and-hit points, commented-out code)
stay clean. Rule 3 has one flagged fixture (a `python3 -` heredoc in
ci.yml) and one clean one (Python scripts CI calls by path). Runs
under the stdlib unittest runner (no pytest in the toolchain) and is
wired into ctest as `lint_selftest`.
"""

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_invariants as lint  # noqa: E402

REGISTRY = """\
#pragma once
#include <string_view>
namespace sparsenn::fault_points {
inline constexpr std::string_view kAll[] = {
    "engine.run",
};
}
"""

SYNC_HPP = """\
#pragma once
#include <mutex>
namespace sparsenn::sync {
class Mutex { std::mutex raw_; };
}
"""


def write(root: Path, rel: str, content: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def run_lint(root: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = lint.run(root)
    return status, out.getvalue()


class FixtureTree(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)
        write(self.root, "src/common/fault_points.hpp", REGISTRY)
        write(self.root, "src/common/sync.hpp", SYNC_HPP)

    def test_misnamed_point_and_raw_mutex_are_both_flagged(self):
        # The negative fixture of record: one typo'd fault-point name
        # ("engine.rum") and one raw std::mutex outside sync.hpp.
        write(self.root, "src/engine.cpp", """\
#include "common/fault.hpp"
#include <mutex>
void run() {
  std::mutex m;                 // hole in the -Wthread-safety proof
  (void)fault::point("engine.rum");  // typo: never fires
  (void)fault::point("engine.run");
}
""")
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        self.assertIn('"engine.rum"', out)
        self.assertIn("std::mutex", out)
        self.assertIn("engine.cpp:4", out)  # raw mutex, exact line
        self.assertIn("engine.cpp:5", out)  # misnamed point, exact line

    def test_cxx20_sync_primitives_are_flagged(self):
        # -Wthread-safety sees none of these, so they are raw sync too.
        write(self.root, "src/common/fault.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        write(self.root, "src/trainer.cpp", """\
#include <barrier>
#include <latch>
#include <semaphore>
std::barrier<> phase(4);
std::latch done(4);
std::counting_semaphore<8> slots(8);
std::binary_semaphore turn(0);
""")
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        for line, name in ((4, "barrier"), (5, "latch"),
                           (6, "counting_semaphore"),
                           (7, "binary_semaphore")):
            self.assertIn(f"trainer.cpp:{line}: raw std::{name}", out)

    def test_registered_point_without_call_site_is_flagged(self):
        write(self.root, "src/engine.cpp",
              'void run() { }\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        self.assertIn('"engine.run" has no src/ call site', out)

    def test_clean_tree_passes(self):
        write(self.root, "src/engine.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 0, out)
        self.assertIn("OK", out)

    def test_commented_out_violations_do_not_fire(self):
        write(self.root, "src/engine.cpp", """\
#include "common/fault.hpp"
// std::mutex legacy_lock;  — replaced by sync::Mutex in PR 8
/* (void)fault::point("engine.rum"); */
void run() { (void)fault::point("engine.run"); }
""")
        status, out = run_lint(self.root)
        self.assertEqual(status, 0, out)

    def test_test_local_point_needs_a_local_hit(self):
        write(self.root, "src/engine.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        # Armed AND hit locally: the chaos_test "p" pattern — allowed.
        write(self.root, "tests/ok_test.cpp",
              'void t() { storm.add({.point = "p"});\n'
              '           (void)fault::point("p"); }\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 0, out)
        # Armed but never hit: the spec can never fire — flagged.
        write(self.root, "tests/bad_test.cpp",
              'void t() { storm.add({.point = "orphan.point"}); }\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        self.assertIn('"orphan.point"', out)

    def test_tsan_selection_catches_renamed_suite(self):
        write(self.root, "src/engine.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        write(self.root, "tests/serve_test.cpp", "// suite\n")
        write(self.root, ".github/workflows/ci.yml",
              'run: ctest --output-on-failure -R "serve_test|ghost_test"\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        self.assertIn("ghost_test", out)
        self.assertNotIn("serve_test.cpp does not exist", out)

    def test_inline_python_in_ci_is_flagged(self):
        # Rule 3's negative fixture: a gate written as a heredoc runs
        # only in CI. The finding names its exact line.
        write(self.root, "src/engine.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        write(self.root, ".github/workflows/ci.yml",
              "      - name: Gate\n"
              "        run: |\n"
              "          python3 - <<'EOF'\n"
              "          import json\n"
              "          EOF\n")
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        self.assertIn("ci.yml:3: inline Python", out)

    def test_python_scripts_called_by_path_are_clean(self):
        write(self.root, "src/engine.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        write(self.root, ".github/workflows/ci.yml",
              "        run: python3 tools/lint/check_invariants.py\n"
              "        run: python3 perfbench/run.py --workload w --seed 1\n")
        status, out = run_lint(self.root)
        self.assertEqual(status, 0, out)


class RealRepo(unittest.TestCase):
    def test_the_actual_repo_is_clean(self):
        # The invariant the CI job enforces; failing here means a
        # contract drifted (or a rule broke) — either way, look now.
        root = Path(__file__).resolve().parents[2]
        status, out = run_lint(root)
        self.assertEqual(status, 0, out)


if __name__ == "__main__":
    unittest.main()
