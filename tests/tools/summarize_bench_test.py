#!/usr/bin/env python3
"""ctest-registered checks for tools/summarize_bench.py and
tools/trace_report.py: data rows decode by the names of the latest
`# columns:` header, whatever columns it names; a row whose width
disagrees with that header (or that has none) is header drift and fails
the tool with the row's line number; malformed rows are skipped rather
than crash the report; and timeline rows route to trace_report.py
only."""

import io
import os
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
TOOLS = REPO / "tools"
sys.path.insert(0, str(TOOLS))

import summarize_bench  # noqa: E402
import trace_report  # noqa: E402

# Each fixture row travels with the `# columns:` header naming its
# columns — the only way a row is decoded.
LEGACY_HEADER = "# columns: figure,panel,series,threads,mops,cv_pct"
LEGACY_ROW = "fig2,intset,rr-fa,4,12.3456,1.20"
TELEMETRY_HEADER = (LEGACY_HEADER +
                    ",commits,aborts,validation,lock,user,serial_esc,"
                    "revocations,hoh_retries,res_lost")
TELEMETRY_ROW = ("fig2,intset,rr-fa,8,10.5000,0.90,"
                 "1000,50,10,20,5,3,7,4,1")
LATENCY_NAMES = (",commit_p50_ns,commit_p95_ns,commit_p99_ns,"
                 "commit_max_ns,live_peak")
OBSERVABILITY_HEADER = TELEMETRY_HEADER + LATENCY_NAMES
OBSERVABILITY_ROW = (TELEMETRY_ROW.replace(",8,", ",16,") +
                     ",2048,8192,16384,30000,512")
KV_NAMES = ",kv_hits,kv_misses,kv_migrations,kv_resizes"
KV_HEADER = OBSERVABILITY_HEADER + KV_NAMES
KV_ROW = ("kv,ycsb-b,RR-V,16,10.5000,0.90,"
          "1000,50,10,20,5,3,7,4,1,"
          "2048,8192,16384,30000,512,"
          "3800,200,96,3")
# Window fusion: fusion_fallbacks joins the cause block and
# fused_windows follows res_lost.
FUSION_OBSERVABILITY_HEADER = (LEGACY_HEADER +
                               ",commits,aborts,validation,lock,user,"
                               "serial_esc,revocations,hoh_retries,"
                               "fusion_fallbacks,res_lost,fused_windows" +
                               LATENCY_NAMES)
FUSION_OBSERVABILITY_ROW = ("fig2,intset,rr-fa,16,10.5000,0.90,"
                            "1000,50,10,20,5,3,7,4,2,1,64,"
                            "2048,8192,16384,30000,512")
FUSION_KV_HEADER = FUSION_OBSERVABILITY_HEADER + KV_NAMES
FUSION_KV_ROW = ("kv,ycsb-c,RR-V+fuse,16,10.5000,0.90,"
                 "1000,50,10,20,5,3,7,4,2,1,64,"
                 "2048,8192,16384,30000,512,"
                 "3800,200,96,3")
# Causal attribution: res_lost_attr,aborts_attr after live_peak.
ATTR_HEADER = FUSION_OBSERVABILITY_HEADER + ",res_lost_attr,aborts_attr"
ATTR_ROW = (FUSION_OBSERVABILITY_ROW + ",9,6")
ATTR_KV_HEADER = ATTR_HEADER + KV_NAMES
ATTR_KV_ROW = ("kv,ycsb-c,RR-V+fuse,16,10.5000,0.90,"
               "1000,50,10,20,5,3,7,4,2,1,64,"
               "2048,8192,16384,30000,512,9,6,"
               "3800,200,96,3")
# The kv range-scan triple after the four kv columns.
SCAN_KV_HEADER = (ATTR_KV_HEADER +
                  ",kv_scans,kv_scan_windows,kv_scan_resumes")
SCAN_KV_ROW = ("kv,ycsb-e,RR-V,16,10.5000,0.90,"
               "1000,50,10,20,5,3,7,4,2,1,64,"
               "2048,8192,16384,30000,512,9,6,"
               "3800,200,96,3,480,1320,2")
# The current layouts: quiescence_waits after aborts_attr (25 columns)
# and the kv_ycsb columns (32); the four net columns after them (36)
# exercise header-keyed decoding of columns the tool does not render.
QWAITS_HEADER = ATTR_HEADER + ",quiescence_waits"
QWAITS_ROW = ATTR_ROW + ",210"
NET_KV_HEADER = (QWAITS_HEADER + KV_NAMES +
                 ",kv_scans,kv_scan_windows,kv_scan_resumes")
NET_KV_ROW = ("kv,ycsb-a,RR-V,16,10.5000,0.90,"
              "1000,50,10,20,5,3,7,4,2,1,64,"
              "2048,8192,16384,30000,512,9,6,210,"
              "3800,200,96,3,0,0,0")
NET_HEADER = (NET_KV_HEADER +
              ",net_batches,net_fused_ops,net_bytes_in,net_bytes_out")
NET_ROW = NET_KV_ROW + ",250,3985,292988,187515"


def write(rows):
    handle = tempfile.NamedTemporaryFile(
        "w", suffix=".txt", delete=False)
    handle.write("\n".join(rows) + "\n")
    handle.close()
    return handle.name


class LoadTest(unittest.TestCase):
    def load(self, rows):
        path = write(rows)
        try:
            return summarize_bench.load(path)
        finally:
            os.unlink(path)

    def test_malformed_kv_cell_keeps_the_rest(self):
        bad = KV_ROW.rsplit(",", 1)[0] + ",oops"
        rows = self.load([KV_HEADER, bad])
        self.assertEqual(len(rows), 1)
        counters = rows[0][-1]
        self.assertNotIn("kv_resizes", counters)
        self.assertEqual(counters["kv_hits"], 3800)
        self.assertEqual(counters["live_peak"], 512)

    def test_each_row_decodes_by_its_latest_header(self):
        rows = self.load([LEGACY_HEADER, LEGACY_ROW,
                          TELEMETRY_HEADER, TELEMETRY_ROW,
                          OBSERVABILITY_HEADER, OBSERVABILITY_ROW,
                          KV_HEADER, KV_ROW,
                          FUSION_OBSERVABILITY_HEADER,
                          FUSION_OBSERVABILITY_ROW,
                          FUSION_KV_HEADER, FUSION_KV_ROW,
                          NET_HEADER, NET_ROW])
        self.assertEqual(len(rows), 7)
        self.assertIsNone(rows[0][-1])  # six columns: no telemetry
        self.assertEqual(rows[1][-1]["res_lost"], 1)
        self.assertNotIn("live_peak", rows[1][-1])
        self.assertEqual(rows[2][-1]["commit_max_ns"], 30000)
        self.assertEqual(rows[3][-1]["kv_migrations"], 96)
        self.assertEqual(rows[4][-1]["fused_windows"], 64)
        self.assertEqual(rows[5][-1]["fusion_fallbacks"], 2)
        self.assertEqual(rows[5][-1]["kv_resizes"], 3)
        self.assertEqual(rows[6][-1]["net_fused_ops"], 3985)

    def test_malformed_rows_are_skipped(self):
        rows = self.load([
            LEGACY_HEADER,
            "not,a,row",
            "fig2,intset,rr-fa,four,12.3,1.2",     # non-integer threads
            "fig2,intset,rr-fa,4,fast,1.2",        # non-float mops
            "",
            "===== banner =====",
            LEGACY_ROW,
        ])
        self.assertEqual(len(rows), 1)

    def test_malformed_telemetry_keeps_throughput(self):
        bad = TELEMETRY_ROW.rsplit(",", 1)[0] + ",oops"
        rows = self.load([TELEMETRY_HEADER, bad])
        self.assertEqual(len(rows), 1)
        self.assertAlmostEqual(rows[0][4], 10.5)
        self.assertNotIn("res_lost", rows[0][-1])  # bad cell dropped
        self.assertEqual(rows[0][-1]["commits"], 1000)

    def test_header_driven_attribution_columns(self):
        rows = self.load([ATTR_HEADER, ATTR_ROW])
        self.assertEqual(len(rows), 1)
        counters = rows[0][-1]
        self.assertEqual(counters["res_lost_attr"], 9)
        self.assertEqual(counters["aborts_attr"], 6)
        self.assertEqual(counters["live_peak"], 512)
        self.assertEqual(counters["fused_windows"], 64)

    def test_header_driven_kv_attribution_columns(self):
        rows = self.load([ATTR_KV_HEADER, ATTR_KV_ROW])
        counters = rows[0][-1]
        self.assertEqual(counters["res_lost_attr"], 9)
        self.assertEqual(counters["kv_hits"], 3800)
        self.assertEqual(counters["kv_resizes"], 3)

    def test_width_mismatch_is_header_drift(self):
        # A 26-column row under a 24-name header, and a row with no
        # header at all, are drift: rejected, naming the line.
        with self.assertRaisesRegex(summarize_bench.HeaderDrift,
                                    r":3: row has 26 columns .* names 24"):
            self.load([ATTR_HEADER, ATTR_ROW, FUSION_KV_ROW])
        with self.assertRaisesRegex(summarize_bench.HeaderDrift,
                                    r":2: data row before any"):
            self.load(["# a comment", LEGACY_ROW])

    def test_header_driven_scan_columns(self):
        rows = self.load([SCAN_KV_HEADER, SCAN_KV_ROW])
        self.assertEqual(len(rows), 1)
        counters = rows[0][-1]
        self.assertEqual(counters["kv_scans"], 480)
        self.assertEqual(counters["kv_scan_windows"], 1320)
        self.assertEqual(counters["kv_scan_resumes"], 2)
        self.assertEqual(counters["kv_hits"], 3800)
        self.assertEqual(counters["res_lost_attr"], 9)
        self.assertEqual(counters["live_peak"], 512)

    def test_header_driven_serving_columns(self):
        rows = self.load([NET_HEADER, NET_ROW])
        self.assertEqual(len(rows), 1)
        counters = rows[0][-1]
        self.assertEqual(counters["quiescence_waits"], 210)
        self.assertEqual(counters["net_batches"], 250)
        self.assertEqual(counters["net_fused_ops"], 3985)
        self.assertEqual(counters["net_bytes_in"], 292988)
        self.assertEqual(counters["net_bytes_out"], 187515)
        self.assertEqual(counters["kv_hits"], 3800)
        self.assertEqual(counters["live_peak"], 512)

    def test_timeline_rows_are_skipped(self):
        rows = self.load([
            "timeline,fig5,alloc,rr-fa,4,10.00,123",
            LEGACY_HEADER,
            LEGACY_ROW,
        ])
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][0], "fig2")


class CliTest(unittest.TestCase):
    def run_tool(self, tool, rows, *argv):
        path = write(rows)
        try:
            return subprocess.run(
                [sys.executable, str(TOOLS / tool), path, *argv],
                capture_output=True, text=True, timeout=60)
        finally:
            os.unlink(path)

    def test_summarize_renders_table(self):
        proc = self.run_tool("summarize_bench.py",
                             [LEGACY_HEADER, LEGACY_ROW,
                              OBSERVABILITY_HEADER, OBSERVABILITY_ROW])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("fig2 / intset", proc.stdout)
        self.assertIn("rr-fa", proc.stdout)
        self.assertIn("live_peak", proc.stdout)  # observability column shows

    def test_summarize_renders_kv_table(self):
        proc = self.run_tool("summarize_bench.py", [KV_HEADER, KV_ROW])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("kv workload", proc.stdout)
        self.assertIn("95.00", proc.stdout)  # 3800 / 4000 keyed ops
        self.assertIn("96", proc.stdout)     # migrations column

    def test_summarize_renders_attribution_columns(self):
        proc = self.run_tool("summarize_bench.py",
                             [ATTR_HEADER, ATTR_ROW])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("lost_attr", proc.stdout)
        self.assertIn("aborts_attr", proc.stdout)
        self.assertIn("9.00", proc.stdout)  # 9 attributed per 1k commits

    def test_summarize_renders_fusion_columns(self):
        proc = self.run_tool("summarize_bench.py",
                             [FUSION_OBSERVABILITY_HEADER,
                              FUSION_OBSERVABILITY_ROW])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("fusion_fb", proc.stdout)
        self.assertIn("fused_win", proc.stdout)
        self.assertIn("64.00", proc.stdout)  # 64 fused per 1k commits

    def test_pre_fusion_rows_render_no_fusion_columns(self):
        proc = self.run_tool("summarize_bench.py",
                             [OBSERVABILITY_HEADER, OBSERVABILITY_ROW])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("fused_win", proc.stdout)

    def test_summarize_renders_scan_columns(self):
        proc = self.run_tool("summarize_bench.py",
                             [SCAN_KV_HEADER, SCAN_KV_ROW])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("kv workload", proc.stdout)
        self.assertIn("win/scan", proc.stdout)
        self.assertIn("480", proc.stdout)   # scans
        self.assertIn("1320", proc.stdout)  # scan windows
        self.assertIn("2.75", proc.stdout)  # 1320 / 480 windows per scan

    def test_scanless_kv_rows_render_no_scan_columns(self):
        proc = self.run_tool("summarize_bench.py", [KV_HEADER, KV_ROW])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("kv workload", proc.stdout)
        self.assertNotIn("win/scan", proc.stdout)

    def test_non_kv_rows_render_no_kv_table(self):
        proc = self.run_tool("summarize_bench.py",
                             [OBSERVABILITY_HEADER, OBSERVABILITY_ROW])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("kv workload", proc.stdout)

    def test_summarize_renders_quiescence_column(self):
        proc = self.run_tool("summarize_bench.py",
                             [QWAITS_HEADER, QWAITS_ROW])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("qwaits", proc.stdout)
        self.assertIn("210.00", proc.stdout)  # 210 waits per 1k commits

    def test_summarize_header_drift_exits_with_line_number(self):
        proc = self.run_tool("summarize_bench.py",
                             [NET_HEADER, NET_ROW, NET_KV_ROW])
        self.assertEqual(proc.returncode, 1)
        self.assertIn(":3: row has 32 columns", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_summarize_empty_input_fails(self):
        proc = self.run_tool("summarize_bench.py", ["# nothing here"])
        self.assertEqual(proc.returncode, 1)

    def test_trace_report_renders_latency_and_timeline(self):
        proc = self.run_tool("trace_report.py", [
            OBSERVABILITY_HEADER,
            OBSERVABILITY_ROW,
            "timeline,fig2,intset,rr-fa,16,0.00,10",
            "timeline,fig2,intset,rr-fa,16,5.00,12",
            "timeline,fig2,intset,hazard,16,0.00,10",
            "timeline,fig2,intset,hazard,16,5.00,400",
        ])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("commit latency", proc.stdout)
        self.assertIn("footprint timeline", proc.stdout)
        self.assertIn("peak=400", proc.stdout)
        self.assertIn("peak=12", proc.stdout)


class TimelineParseTest(unittest.TestCase):
    def test_trace_report_load(self):
        path = write([
            OBSERVABILITY_HEADER,
            OBSERVABILITY_ROW,
            "timeline,fig2,intset,rr-fa,16,0.00,10",
            "timeline,fig2,intset,rr-fa,16,5.00,12",
            "timeline,broken,row,only,six",
        ])
        try:
            latency_rows, timelines = trace_report.load(path)
        finally:
            os.unlink(path)
        self.assertEqual(len(latency_rows), 1)
        self.assertEqual(latency_rows[0][4]["commit_p99_ns"], 16384)
        samples = timelines[("fig2", "intset")][("rr-fa", 16)]
        self.assertEqual(samples, [(0.0, 10), (5.0, 12)])

    def test_sparkline_is_deterministic(self):
        samples = [(0.0, 0), (1.0, 50), (2.0, 100)]
        line = trace_report.sparkline(samples, 10, 0, 100)
        self.assertEqual(len(line), 10)
        self.assertEqual(line[0], trace_report.SPARK[0])
        self.assertEqual(line[-1], trace_report.SPARK[-1])

    def test_percentile_table_suppressed_when_zero(self):
        zero_row = TELEMETRY_ROW + ",0,0,0,0,0"
        buffer = io.StringIO()
        path = write([OBSERVABILITY_HEADER, zero_row])
        try:
            latency_rows, _ = trace_report.load(path)
            with redirect_stdout(buffer):
                trace_report.emit_latency_tables(latency_rows)
        finally:
            os.unlink(path)
        self.assertIn("all zero", buffer.getvalue())


if __name__ == "__main__":
    unittest.main()
