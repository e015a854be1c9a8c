#!/usr/bin/env python3
"""Tests for tools/hohtm_lint.py against the fixture corpus.

Each fixture in tests/tools/fixtures/ carries a `.fixture` suffix so the
real-tree lint never sees it, and encodes its intended repo-relative path
with `__` separators (src__tm__x.hpp.fixture -> src/tm/x.hpp).  The tests
materialize the corpus into a temp repo root and assert the exact finding
set: every planted violation is reported at its line, every clean file is
silent, and allow-pragmas suppress precisely the rule they name.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
LINT = REPO / "tools" / "hohtm_lint.py"
FIXTURES = HERE / "fixtures"


def run_lint(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, str(LINT), *argv],
        capture_output=True, text=True, cwd=cwd)


def materialize(root: pathlib.Path) -> None:
    for fixture in FIXTURES.glob("*.fixture"):
        rel = pathlib.Path(*fixture.name[: -len(".fixture")].split("__"))
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(fixture, dest)


# The complete expected output on the fixture corpus: (path, line, rule).
# Clean fixtures appear in no row — any extra finding fails the exact-set
# comparison, so false positives are caught as hard as false negatives.
EXPECTED = {
    ("src/ds/tx_raw_alloc_bad.cpp", 8, "tx-raw-alloc"),
    ("src/ds/tx_raw_alloc_bad.cpp", 9, "tx-raw-alloc"),
    ("src/ds/tx_raw_alloc_bad.cpp", 10, "tx-raw-alloc"),
    ("src/ds/tx_raw_alloc_bad.cpp", 11, "tx-raw-alloc"),
    ("src/tm/atomic_order_bad.hpp", 5, "atomic-order"),
    ("src/tm/atomic_order_bad.hpp", 6, "atomic-order"),
    ("src/tm/atomic_order_bad.hpp", 7, "atomic-order"),
    # The widened scope (src/kv/ here; also src/ds/, src/reclaim/,
    # src/sched/): implicit orders outside the TM core now fire too, and
    # the allow-pragma still silences a deliberate one (line 12).
    ("src/kv/atomic_order_widened_bad.hpp", 8, "atomic-order"),
    ("src/kv/atomic_order_widened_bad.hpp", 9, "atomic-order"),
    ("tests/util/sleep_bad.cpp", 6, "no-sleep-sync"),
    ("tests/util/sleep_bad.cpp", 8, "no-sleep-sync"),
    ("src/util/spin_bad.hpp", 5, "spin-park"),
    ("src/tm/gated_bad.hpp", 4, "gated-hooks"),
    ("src/tm/gated_bad.hpp", 7, "gated-hooks"),
    ("src/util/pragma_bad.hpp", 1, "pragma-once"),
    ("src/util/using_bad.hpp", 4, "no-using-namespace"),
    ("src/core/padded_bad.hpp", 6, "padded-shared-array"),
    ("src/util/metric_slots_bad.hpp", 10, "padded-metric-slots"),
    # allow_pragma.cpp: three violations suppressed by pragmas; the last
    # yield's pragma names a different rule, so it still fires.
    ("src/ds/allow_pragma.cpp", 17, "no-sleep-sync"),
}


class FixtureCorpus(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(prefix="hohtm_lint_test_")
        cls.root = pathlib.Path(cls.tmp.name)
        materialize(cls.root)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def lint_json(self, *paths):
        proc = run_lint("--json", "--root", str(self.root), *paths)
        self.assertIn(proc.returncode, (0, 1), proc.stderr)
        return proc, json.loads(proc.stdout)

    def test_exact_finding_set(self):
        proc, findings = self.lint_json()
        got = {(f["path"], f["line"], f["rule"]) for f in findings}
        self.assertEqual(got, EXPECTED)
        self.assertEqual(proc.returncode, 1)

    def test_json_shape(self):
        _, findings = self.lint_json()
        for f in findings:
            self.assertEqual(sorted(f), ["line", "message", "path", "rule"])
            self.assertIsInstance(f["line"], int)
            self.assertTrue(f["message"])

    def test_clean_subtree_exits_zero(self):
        # The clean fixtures alone must produce no findings and exit 0.
        clean = [p for p in ("src/util/wait_good.hpp",
                             "src/util/spin_good.hpp",
                             "src/util/pragma_good.hpp",
                             "src/util/atomic_unordered_ok.hpp",
                             "src/tm/atomic_order_good.hpp",
                             "src/core/padded_good.hpp",
                             "src/util/metric_slots_good.hpp",
                             "src/ds/tx_alloc_good.cpp",
                             "src/util/trace.hpp",
                             "tests/util/using_ok.cpp")]
        proc, findings = self.lint_json(*clean)
        self.assertEqual(findings, [])
        self.assertEqual(proc.returncode, 0)

    def test_allow_pragma_suppresses_named_rule_only(self):
        _, findings = self.lint_json("src/ds/allow_pragma.cpp")
        self.assertEqual(
            [(f["line"], f["rule"]) for f in findings],
            [(17, "no-sleep-sync")])

    def test_gate_exempt_file_is_silent(self):
        # Identical token in the hook header itself: exempt.
        _, findings = self.lint_json("src/util/trace.hpp")
        self.assertEqual(findings, [])

    def test_human_output_format(self):
        proc = run_lint("--root", str(self.root), "src/util/spin_bad.hpp")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("src/util/spin_bad.hpp:5: [spin-park]", proc.stdout)
        self.assertIn("1 finding(s)", proc.stderr)


class Cli(unittest.TestCase):
    def test_list_rules_names_every_rule(self):
        proc = run_lint("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ("tx-raw-alloc", "atomic-order", "no-sleep-sync",
                     "spin-park", "gated-hooks", "pragma-once",
                     "no-using-namespace", "padded-shared-array",
                     "padded-metric-slots"):
            self.assertIn(rule, proc.stdout)

    def test_missing_path_is_usage_error(self):
        proc = run_lint("--root", str(REPO), "no/such/dir")
        self.assertEqual(proc.returncode, 2)

    def test_real_tree_is_clean(self):
        # The merge gate: the repo's own sources must lint clean.
        proc = run_lint("--root", str(REPO))
        self.assertEqual(proc.returncode, 0,
                         f"hohtm-lint findings in the real tree:\n"
                         f"{proc.stdout}{proc.stderr}")


if __name__ == "__main__":
    unittest.main()
