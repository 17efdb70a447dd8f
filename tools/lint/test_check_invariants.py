#!/usr/bin/env python3
"""Self-test for check_invariants.py.

A linter that cannot fail is decoration: the core of this suite is a
negative fixture tree — a miniature repo with a misnamed fault point
and a raw std::mutex — asserting the linter flags *both*, plus
positive fixtures pinning that the allowed patterns (sync.hpp's own
raw primitives, test-local armed-and-hit points, commented-out code)
stay clean. Runs under the stdlib unittest runner (no pytest in the
toolchain) and is wired into ctest as `lint_selftest`.
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

    def test_ci_gated_key_must_have_a_producer(self):
        write(self.root, "src/engine.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        write(self.root, ".github/workflows/ci.yml",
              '          j["made_up_metric"]\n          j["p99_us"]\n')
        # Escaped-quote emission (how the bench writers print JSON)
        # must satisfy the gate.
        write(self.root, "bench/load.cpp",
              'os << "\\"p99_us\\": " << p99;\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        self.assertIn("made_up_metric", out)
        self.assertNotIn("p99_us", out)

    def test_overload_gate_keys_need_a_bench_producer(self):
        # The overload/degraded CI gates read per-class and breaker
        # keys out of serving_load.json; each must be emitted by a
        # bench writer or the gate dereferences a key that can never
        # exist. Mixed subscript and .get() access must both count as
        # gated, and a producer that emits only *some* keys must be
        # flagged for exactly the missing ones.
        write(self.root, "src/engine.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        write(self.root, ".github/workflows/ci.yml",
              '          ov["breaker_recovered"]\n'
              '          ov["circuit_shed"]\n'
              '          dg.get("bit_identical")\n'
              '          dg["degraded_completed"]\n')
        write(self.root, "bench/load.cpp",
              'os << "\\"circuit_shed\\": " << stats.circuit_shed;\n'
              'os << "\\"bit_identical\\": " << (ok ? "true" : "false");\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        self.assertIn("breaker_recovered", out)
        self.assertIn("degraded_completed", out)
        self.assertNotIn("circuit_shed", out)
        self.assertNotIn("bit_identical", out)
        # Completing the producer clears the gate.
        write(self.root, "bench/load.cpp",
              'os << "\\"circuit_shed\\": " << stats.circuit_shed;\n'
              'os << "\\"bit_identical\\": " << (ok ? "true" : "false");\n'
              'os << "\\"breaker_recovered\\": true";\n'
              'os << "\\"degraded_completed\\": " << n;\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 0, out)

    def test_key_named_only_in_a_bench_comment_is_flagged(self):
        # Rule 3's negative fixture: the bench's emission was renamed
        # away while its header comment (and a block comment) still
        # name the key CI reads. Comments emit nothing, so the gate
        # would raise KeyError in CI; the linter must say so now.
        write(self.root, "src/engine.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        write(self.root, ".github/workflows/ci.yml",
              '          for point in j["thread_sweep"]:\n')
        write(self.root, "bench/sim.cpp",
              '// "thread_sweep": inf/s at 1,2,4 threads\n'
              '/* os << "\\"thread_sweep\\": ["; */\n'
              'os << "\\"shard_sweep\\": [";\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        self.assertIn('"thread_sweep"', out)
        # Emitting it from code clears the finding.
        write(self.root, "bench/sim.cpp",
              'os << "\\"thread_sweep\\": [";\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 0, out)

    def test_baseline_satisfies_only_its_top_level_keys(self):
        # The gates open BENCH_baseline.json's sections
        # (json.load(f)["snapshot"]), so a top-level key needs no bench
        # producer. A key nested in a section is an old bench output and
        # proves nothing about what the bench emits today.
        write(self.root, "src/engine.cpp",
              '#include "common/fault.hpp"\n'
              'void run() { (void)fault::point("engine.run"); }\n')
        write(self.root, ".github/workflows/ci.yml",
              '          base = json.load(f)["snapshot"]\n'
              '          j["event_speedup"]\n')
        write(self.root, "BENCH_baseline.json",
              '{"snapshot": {"event_speedup": 1.7}}\n')
        status, out = run_lint(self.root)
        self.assertEqual(status, 1, out)
        self.assertIn('"event_speedup"', out)
        self.assertNotIn('"snapshot"', out)
        write(self.root, "bench/sim.cpp",
              'os << "\\"event_speedup\\": " << speedup;\n')
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
