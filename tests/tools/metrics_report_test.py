#!/usr/bin/env python3
"""ctest-registered checks for tools/metrics_report.py: the metrics-plane
snapshot must render, and the attribution-sum invariants must be
enforced exactly. Pure stdlib; crafted snapshots, no bench binaries
involved."""

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
                "validations": 45,
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
                                "net.loop_parks": 40,
                                "net.loop_polls": 91234,
                                "net.bytes_in": 292988,
                                "net.bytes_out": 187515})
        proc = self.run_tool(doc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("## serving tier", proc.stdout)
        self.assertIn("batches: 250, fused ops: 3985 (15.94 per batch)",
                      proc.stdout)
        self.assertIn("event loop: 40 parks (0.160 per batch), "
                      "91234 polls", proc.stdout)
        self.assertIn("wire: 292988 bytes in, 187515 bytes out",
                      proc.stdout)

    def test_validations_render_per_commit(self):
        proc = self.run_tool(snapshot())
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("## read-set validation", proc.stdout)
        self.assertIn("validations: 45 (0.050 per commit)", proc.stdout)

    def test_validations_without_commits_do_not_divide_by_zero(self):
        doc = snapshot()
        doc["sections"]["tm"]["commits"] = 0
        proc = self.run_tool(doc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("validations: 45 (45.000 per commit)", proc.stdout)

    def test_snapshot_without_validations_renders_no_section(self):
        doc = snapshot()
        del doc["sections"]["tm"]["validations"]
        proc = self.run_tool(doc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("read-set validation", proc.stdout)

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


if __name__ == "__main__":
    unittest.main()
