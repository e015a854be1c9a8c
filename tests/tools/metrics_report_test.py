#!/usr/bin/env python3
"""ctest-registered checks for tools/metrics_report.py and
tools/bench_compare.py: the metrics-plane snapshot must render, the
attribution-sum invariants must be enforced exactly, and the perf-smoke
gate must seed its baseline on first run, hard-fail structural
regressions, and gate throughput by HOHTM_BENCH_TOLERANCE. Pure stdlib;
crafted snapshots, no bench binaries involved."""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
TOOLS = REPO / "tools"
sys.path.insert(0, str(TOOLS))

import bench_compare  # noqa: E402
import metrics_report  # noqa: E402


def snapshot(res_lost=4, attributed=3, unknown=1):
    """A coherent metrics snapshot: sums exact by construction."""
    by_aborter = [0] * 9
    by_aborter[2] = attributed
    by_aborter[-1] = unknown  # last bucket is the unknown bucket
    return {
        "counters": {"kv.ops": 1000, "reclaim.deferred": 12},
        "gauges": {"reclaim.backlog.rr": 3},
        "sections": {
            "tm": {
                "commits": 900,
                "aborts": 40,
                "res_lost": res_lost,
                "attribution": {
                    "losses_attributed": attributed,
                    "losses_unknown": unknown,
                    "aborts_attributed": 30,
                    "aborts_unknown": 10,
                    "fusion_fb_attributed": 2,
                    "fusion_fb_unknown": 0,
                    "loss_by_aborter": by_aborter,
                    "loss_by_site": {"list_remove": res_lost},
                    "aborted_by": [15, 15, 0],
                },
            },
            "kv_heatmap": [
                {"shard": 0, "cell": 3401, "weight": 7572},
                {"shard": 0, "cell": 12, "weight": 31},
            ],
            "watchdog": {
                "active_threads": 0,
                "stalled_threads": 0,
                "threshold_ns": 100000000,
                "max_stall_ns": 0,
                "stall_events": 1,
            },
        },
    }


def write_json(doc, suffix=".json"):
    handle = tempfile.NamedTemporaryFile("w", suffix=suffix, delete=False)
    json.dump(doc, handle)
    handle.close()
    return handle.name


SMOKE_CSV = """\
# kv smoke capture
fig7,kv,rr-fa,4,12.5000,0.90,1000,50
fig7,kv,hazard,4,8.0000,0.70,1000,50
timeline,fig7,kv,rr-fa,4,0.00,10
not,enough,cols
fig7,kv,rr-fa,oops,1.0,0.5
"""


def write_csv(text=SMOKE_CSV):
    handle = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
    handle.write(text)
    handle.close()
    return handle.name


class LoadTest(unittest.TestCase):
    def test_load_plain_snapshot(self):
        path = write_json(snapshot())
        try:
            doc = metrics_report.load(path)
        finally:
            os.unlink(path)
        self.assertIn("counters", doc)
        self.assertEqual(doc["counters"]["kv.ops"], 1000)

    def test_load_unwraps_service_stats_snapshot(self):
        wrapped = {"service": {"uptime_ms": 5}, "metrics": snapshot()}
        path = write_json(wrapped)
        try:
            doc = metrics_report.load(path)
        finally:
            os.unlink(path)
        self.assertIn("counters", doc)
        self.assertNotIn("service", doc)


class CheckTest(unittest.TestCase):
    def test_coherent_snapshot_passes(self):
        self.assertEqual(metrics_report.check(snapshot()), [])

    def test_missing_tm_section_is_reported(self):
        problems = metrics_report.check({"counters": {}})
        self.assertEqual(len(problems), 1)
        self.assertIn("no tm section", problems[0])

    def test_attributed_plus_unknown_must_equal_losses(self):
        doc = snapshot()
        doc["sections"]["tm"]["attribution"]["losses_unknown"] = 99
        problems = metrics_report.check(doc)
        self.assertTrue(any("losses_unknown(99)" in p for p in problems))

    def test_aborter_buckets_must_sum_to_losses(self):
        doc = snapshot()
        doc["sections"]["tm"]["attribution"]["loss_by_aborter"][2] += 1
        problems = metrics_report.check(doc)
        self.assertTrue(any("loss_by_aborter" in p for p in problems))

    def test_site_buckets_must_sum_to_losses(self):
        doc = snapshot()
        doc["sections"]["tm"]["attribution"]["loss_by_site"] = {}
        problems = metrics_report.check(doc)
        self.assertTrue(any("loss_by_site" in p for p in problems))

    def test_aborted_by_may_undercount_but_not_overcount(self):
        doc = snapshot()
        doc["sections"]["tm"]["attribution"]["aborted_by"] = [1, 1]
        self.assertEqual(metrics_report.check(doc), [])  # <= aborts: fine
        doc["sections"]["tm"]["attribution"]["aborted_by"] = [41]
        problems = metrics_report.check(doc)
        self.assertTrue(any("aborted_by" in p for p in problems))


class RenderCliTest(unittest.TestCase):
    def run_tool(self, doc, *argv):
        path = write_json(doc)
        try:
            return subprocess.run(
                [sys.executable, str(TOOLS / "metrics_report.py"), path,
                 *argv],
                capture_output=True, text=True, timeout=60)
        finally:
            os.unlink(path)

    def test_renders_every_section(self):
        proc = self.run_tool(snapshot())
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for fragment in ("## counters", "kv.ops", "## gauges",
                         "## causal abort attribution",
                         "losses: 4 total = 3 attributed + 1 unknown",
                         "list_remove",
                         "## kv contention heatmap", "cell  3401",
                         "## reclamation-stall watchdog",
                         "1 lifetime events"):
            self.assertIn(fragment, proc.stdout)

    def test_check_passes_on_coherent_snapshot(self):
        proc = self.run_tool(snapshot(), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("attribution invariants ok", proc.stdout)

    def test_check_fails_on_broken_invariant(self):
        doc = snapshot()
        doc["sections"]["tm"]["attribution"]["losses_attributed"] = 0
        proc = self.run_tool(doc, "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("CHECK FAILED", proc.stderr)

    def test_net_counters_render_serving_tier_section(self):
        doc = snapshot()
        doc["counters"].update({"net.batches": 250, "net.fused_ops": 3985,
                                "net.inline_batches": 12,
                                "net.loop_parks": 40,
                                "net.loop_polls": 91234,
                                "net.bytes_in": 292988,
                                "net.bytes_out": 187515})
        proc = self.run_tool(doc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("## serving tier", proc.stdout)
        self.assertIn("batches: 250, fused ops: 3985 (15.94 per batch)",
                      proc.stdout)
        self.assertIn("inline batches: 12 (single-op, run on the event loop)",
                      proc.stdout)
        self.assertIn("event loop: 40 parks (0.160 per batch), "
                      "91234 polls", proc.stdout)
        self.assertIn("wire: 292988 bytes in, 187515 bytes out",
                      proc.stdout)

    def test_netless_snapshot_renders_no_serving_tier(self):
        proc = self.run_tool(snapshot())
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("serving tier", proc.stdout)

    def test_stalled_watchdog_renders_loudly(self):
        doc = snapshot()
        doc["sections"]["watchdog"]["stalled_threads"] = 2
        doc["sections"]["watchdog"]["active_threads"] = 3
        proc = self.run_tool(doc)
        self.assertIn("STALLED: 2 stalled of 3 active", proc.stdout)


class BenchRowsTest(unittest.TestCase):
    def test_load_rows_skips_comments_timelines_and_malformed(self):
        path = write_csv()
        try:
            rows = bench_compare.load_rows(path)
        finally:
            os.unlink(path)
        self.assertEqual([r["series"] for r in rows], ["rr-fa", "hazard"])
        self.assertEqual(rows[0]["threads"], 4)
        self.assertEqual(rows[0]["mops"], 12.5)


class BenchCompareTest(unittest.TestCase):
    """Drive emit/check through the CLI so argument wiring is covered."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_compare_test_")
        self.dir = Path(self.tmp.name)
        self.baseline = self.dir / "BENCH_9.baseline.json"
        self.artifact = self.dir / "BENCH_9.json"

    def tearDown(self):
        self.tmp.cleanup()

    def run_tool(self, *argv, env_extra=None):
        env = dict(os.environ)
        env.pop("HOHTM_BENCH_TOLERANCE", None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, str(TOOLS / "bench_compare.py"), *argv],
            capture_output=True, text=True, timeout=60, env=env)

    def emit(self, csv_text=SMOKE_CSV, metrics=None):
        csv_path = write_csv(csv_text)
        metrics_path = write_json(metrics or snapshot())
        try:
            proc = self.run_tool("emit", csv_path, metrics_path,
                                 "-o", str(self.artifact))
        finally:
            os.unlink(csv_path)
            os.unlink(metrics_path)
        return proc

    def check(self, env_extra=None):
        return self.run_tool("check", str(self.artifact),
                             "--baseline", str(self.baseline),
                             env_extra=env_extra)

    def test_emit_builds_the_artifact(self):
        proc = self.emit()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        artifact = json.loads(self.artifact.read_text())
        self.assertEqual(artifact["schema"], bench_compare.SCHEMA)
        self.assertEqual(len(artifact["rows"]), 2)
        self.assertIn("sections", artifact["metrics"])

    def test_emit_fails_on_empty_csv(self):
        proc = self.emit(csv_text="# nothing\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no bench rows", proc.stderr)

    def test_first_check_seeds_the_baseline(self):
        self.emit()
        proc = self.check()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("seeded baseline", proc.stdout)
        self.assertIn("commit it", proc.stdout)
        self.assertEqual(json.loads(self.baseline.read_text()),
                         json.loads(self.artifact.read_text()))

    def test_second_check_passes_against_the_seed(self):
        self.emit()
        self.check()
        proc = self.check()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("bench compare ok: 2 baseline rows held", proc.stdout)

    def test_broken_metrics_never_seed_a_baseline(self):
        bad = snapshot()
        bad["sections"]["tm"]["attribution"]["losses_attributed"] = 0
        self.emit(metrics=bad)
        proc = self.check()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL (artifact)", proc.stderr)
        self.assertFalse(self.baseline.exists())

    def test_missing_row_is_a_structural_failure(self):
        self.emit()
        self.check()  # seed with both series
        one_series = ("fig7,kv,rr-fa,4,12.5000,0.90,1000,50\n")
        self.emit(csv_text=one_series)
        proc = self.check()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("row missing from artifact", proc.stderr)
        self.assertIn("hazard", proc.stderr)

    def test_empty_heatmap_is_a_structural_failure(self):
        self.emit()
        self.check()
        cold = snapshot()
        cold["sections"]["kv_heatmap"] = []
        self.emit(metrics=cold)
        proc = self.check()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("contention heatmap is empty", proc.stderr)

    def test_missing_watchdog_is_a_structural_failure(self):
        self.emit()
        self.check()
        mute = snapshot()
        del mute["sections"]["watchdog"]
        self.emit(metrics=mute)
        proc = self.check()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("watchdog section missing", proc.stderr)

    def test_throughput_floor_fails_a_slow_row(self):
        self.emit()
        self.check()
        slow = SMOKE_CSV.replace("12.5000", "1.0000")  # 8% of baseline
        self.emit(csv_text=slow)
        proc = self.check()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("Mops < floor", proc.stderr)
        self.assertIn("rr-fa", proc.stderr)

    def test_tolerance_zero_disables_the_throughput_gate(self):
        self.emit()
        self.check()
        slow = SMOKE_CSV.replace("12.5000", "1.0000")
        self.emit(csv_text=slow)
        proc = self.check(env_extra={"HOHTM_BENCH_TOLERANCE": "0"})
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("tolerance 0%", proc.stdout)

    def test_wide_tolerance_passes_a_mild_dip(self):
        self.emit()
        self.check()
        mild = SMOKE_CSV.replace("12.5000", "9.0000")  # 72% of baseline
        self.emit(csv_text=mild)
        proc = self.check()
        self.assertEqual(proc.returncode, 0, proc.stderr)


class StructuralUnitTest(unittest.TestCase):
    """Direct calls into the module for the pieces the CLI shares."""

    def artifact(self):
        return {"schema": 1,
                "rows": [{"figure": "fig7", "panel": "kv",
                          "series": "rr-fa", "threads": 4, "mops": 10.0}],
                "metrics": snapshot()}

    def test_structural_ok_against_itself(self):
        art = self.artifact()
        self.assertEqual(
            bench_compare.structural_problems(art, copy.deepcopy(art)), [])

    def test_throughput_floor_math(self):
        art = self.artifact()
        base = copy.deepcopy(art)
        art["rows"][0]["mops"] = 3.9  # floor at tolerance .60 is 4.0
        problems = bench_compare.throughput_problems(art, base, 0.60)
        self.assertEqual(len(problems), 1)
        art["rows"][0]["mops"] = 4.1
        self.assertEqual(
            bench_compare.throughput_problems(art, base, 0.60), [])


if __name__ == "__main__":
    unittest.main()
