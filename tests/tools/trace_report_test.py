#!/usr/bin/env python3
"""ctest-registered checks for tools/trace_report.py: the latency block
must be found by name from the latest `# columns:` header, header drift
must fail the tool with the row's line number, the `timeline,...` rows
must keep parsing, the footprint sparklines must stay deterministic, the Chrome
trace-event summary must render (including the kv-activity — with its
range-scan digest — and window-fusion sections), and the CLI filters
(--figure, --width, --trace) must behave. Complements
tests/tools/summarize_bench_test.py, which covers the loaders shared
with summarize_bench.py."""

import io
import json
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

import trace_report  # noqa: E402

# An observability row: 6 throughput columns, 9 telemetry counters,
# 4 commit-latency percentiles (ns), live_peak — named by OBS_HEADER.
OBS_HEADER = ("# columns: figure,panel,series,threads,mops,cv_pct,commits,"
              "aborts,validation,lock,user,serial_esc,revocations,"
              "hoh_retries,res_lost,commit_p50_ns,commit_p95_ns,"
              "commit_p99_ns,commit_max_ns,live_peak")


def obs_row(figure="fig2", panel="intset", series="rr-fa", threads=16,
            p50=2048, p95=8192, p99=16384, pmax=30000, live_peak=512):
    return (f"{figure},{panel},{series},{threads},10.5000,0.90,"
            f"1000,50,10,20,5,3,7,4,1,"
            f"{p50},{p95},{p99},{pmax},{live_peak}")


def timeline_row(figure, panel, series, threads, t, live):
    return f"timeline,{figure},{panel},{series},{threads},{t},{live}"


def write(rows):
    handle = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
    handle.write("\n".join(rows) + "\n")
    handle.close()
    return handle.name


class LoadTest(unittest.TestCase):
    def load(self, rows):
        path = write(rows)
        try:
            return trace_report.load(path)
        finally:
            os.unlink(path)

    def test_latency_block_found_by_header_name(self):
        latency_rows, timelines = self.load(["# comment", OBS_HEADER,
                                             obs_row()])
        self.assertEqual(len(latency_rows), 1)
        self.assertEqual(len(timelines), 0)
        figure, panel, series, threads, values = latency_rows[0]
        self.assertEqual((figure, panel, series, threads),
                         ("fig2", "intset", "rr-fa", 16))
        self.assertEqual(values["commit_p50_ns"], 2048)
        self.assertEqual(values["commit_p95_ns"], 8192)
        self.assertEqual(values["commit_p99_ns"], 16384)
        self.assertEqual(values["commit_max_ns"], 30000)
        self.assertEqual(values["live_peak"], 512)

    def test_short_rows_are_skipped(self):
        # Rows whose header names no latency columns (the 6-column and
        # 15-column telemetry layouts) carry no latency data;
        # trace_report must skip them without crashing.
        latency_rows, timelines = self.load([
            "# columns: figure,panel,series,threads,mops,cv_pct",
            "fig2,intset,rr-fa,4,12.3456,1.20",
            "# columns: figure,panel,series,threads,mops,cv_pct,commits,"
            "aborts,validation,lock,user,serial_esc,revocations,"
            "hoh_retries,res_lost",
            "fig2,intset,rr-fa,8,10.5,0.9,1000,50,10,20,5,3,7,4,1",
            OBS_HEADER,
            obs_row(),
        ])
        self.assertEqual(len(latency_rows), 1)
        self.assertEqual(len(timelines), 0)

    def test_malformed_latency_row_is_skipped(self):
        bad = obs_row().rsplit(",", 1)[0] + ",oops"
        latency_rows, _ = self.load([OBS_HEADER, bad, obs_row()])
        self.assertEqual(len(latency_rows), 1)

    def test_timeline_rows_group_by_panel_and_series(self):
        _, timelines = self.load([
            timeline_row("fig5", "alloc", "rr-fa", 4, "0.00", 10),
            timeline_row("fig5", "alloc", "rr-fa", 4, "5.00", 12),
            timeline_row("fig5", "alloc", "hazard", 4, "0.00", 10),
            timeline_row("fig5", "mem", "rr-fa", 8, "0.00", 1),
        ])
        self.assertEqual(set(timelines), {("fig5", "alloc"), ("fig5", "mem")})
        self.assertEqual(timelines[("fig5", "alloc")][("rr-fa", 4)],
                         [(0.0, 10), (5.0, 12)])
        self.assertEqual(timelines[("fig5", "alloc")][("hazard", 4)],
                         [(0.0, 10)])
        self.assertEqual(timelines[("fig5", "mem")][("rr-fa", 8)],
                         [(0.0, 1)])

    def test_malformed_timeline_rows_are_skipped(self):
        _, timelines = self.load([
            "timeline,fig5,alloc,rr-fa,four,0.00,10",   # bad threads
            "timeline,fig5,alloc,rr-fa,4,zero,10",      # bad time
            "timeline,fig5,alloc,rr-fa,4,0.00,ten",     # bad live count
            "timeline,short,row",                        # too few columns
            timeline_row("fig5", "alloc", "rr-fa", 4, "1.00", 7),
        ])
        self.assertEqual(timelines[("fig5", "alloc")][("rr-fa", 4)],
                         [(1.0, 7)])


class SparklineTest(unittest.TestCase):
    def test_resamples_to_requested_width(self):
        samples = [(float(t), t) for t in range(100)]
        line = trace_report.sparkline(samples, 10, 0, 99)
        self.assertEqual(len(line), 10)

    def test_scale_endpoints(self):
        samples = [(0.0, 0), (1.0, 50), (2.0, 100)]
        line = trace_report.sparkline(samples, 6, 0, 100)
        self.assertEqual(line[0], trace_report.SPARK[0])
        self.assertEqual(line[-1], trace_report.SPARK[-1])

    def test_flat_series_renders_flat(self):
        samples = [(float(t), 42) for t in range(8)]
        line = trace_report.sparkline(samples, 8, 42, 42)
        self.assertEqual(len(set(line)), 1)

    def test_empty_and_single_sample(self):
        self.assertEqual(trace_report.sparkline([], 10, 0, 1), "")
        line = trace_report.sparkline([(0.0, 5)], 10, 0, 10)
        self.assertEqual(len(line), 10)


class RenderTest(unittest.TestCase):
    def render(self, fn, *args, **kwargs):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            fn(*args, **kwargs)
        return buffer.getvalue()

    def test_latency_table_converts_ns_to_us(self):
        path = write([OBS_HEADER,
                      obs_row(p50=2000, p95=8000, p99=16000, pmax=30000)])
        try:
            latency_rows, _ = trace_report.load(path)
        finally:
            os.unlink(path)
        out = self.render(trace_report.emit_latency_tables, latency_rows)
        self.assertIn("commit latency (us)", out)
        self.assertIn("2.00", out)    # 2000 ns == 2.00 us
        self.assertIn("30.00", out)   # max column
        self.assertIn("512", out)     # live_peak passthrough

    def test_all_zero_panel_is_flagged_not_rendered(self):
        path = write([OBS_HEADER,
                      obs_row(p50=0, p95=0, p99=0, pmax=0, live_peak=0)])
        try:
            latency_rows, _ = trace_report.load(path)
        finally:
            os.unlink(path)
        out = self.render(trace_report.emit_latency_tables, latency_rows)
        self.assertIn("all zero", out)
        self.assertNotIn("p50", out)

    def test_figure_filter(self):
        path = write([OBS_HEADER, obs_row(figure="fig2"),
                      obs_row(figure="fig7")])
        try:
            latency_rows, _ = trace_report.load(path)
        finally:
            os.unlink(path)
        out = self.render(trace_report.emit_latency_tables, latency_rows,
                          "fig7")
        self.assertIn("fig7", out)
        self.assertNotIn("fig2", out)

    def test_footprint_chart_reports_peak_and_final(self):
        path = write([
            timeline_row("fig5", "alloc", "hazard", 4, "0.00", 10),
            timeline_row("fig5", "alloc", "hazard", 4, "5.00", 400),
            timeline_row("fig5", "alloc", "hazard", 4, "10.00", 30),
            timeline_row("fig5", "alloc", "rr-fa", 4, "0.00", 10),
            timeline_row("fig5", "alloc", "rr-fa", 4, "10.00", 12),
        ])
        try:
            _, timelines = trace_report.load(path)
        finally:
            os.unlink(path)
        out = self.render(trace_report.emit_footprint_charts, timelines,
                          None, 40)
        self.assertIn("footprint timeline", out)
        self.assertIn("peak=400 final=30", out)
        self.assertIn("peak=12 final=12", out)
        self.assertIn("scale 10..400", out)

    def test_trace_summary_counts_events_and_threads(self):
        events = [
            {"name": "commit", "ph": "X", "ts": 0, "dur": 5, "tid": 1},
            {"name": "commit", "ph": "X", "ts": 100, "dur": 5, "tid": 2},
            {"name": "abort", "ph": "X", "ts": 2000, "dur": 1, "tid": 1},
        ]
        handle = tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False)
        json.dump(events, handle)
        handle.close()
        try:
            out = self.render(trace_report.emit_trace_summary, handle.name)
        finally:
            os.unlink(handle.name)
        self.assertIn("3 events", out)
        self.assertIn("2 threads", out)
        self.assertIn("2.000 ms", out)  # ts span 0..2000 us
        self.assertIn("commit", out)
        self.assertIn("abort", out)

    def test_trace_summary_kv_activity_section(self):
        def kv(name, v, ts=0):
            return {"name": name, "ph": "X", "ts": ts, "dur": 1, "tid": 1,
                    "args": {"v": v}}
        events = [
            kv("kv_op_start", 0), kv("kv_op_start", 1),
            kv("kv_op_start", 2),
            kv("kv_op_done", 0),   # get
            kv("kv_op_done", 1),   # put
            kv("kv_migrate", 0), kv("kv_migrate", 0),
            kv("kv_table_swap", 1),
            kv("kv_table_swap", 2, ts=100),  # second swap, not yet freed
            kv("kv_table_free", 16),
        ]
        handle = tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False)
        json.dump(events, handle)
        handle.close()
        try:
            out = self.render(trace_report.emit_trace_summary, handle.name)
        finally:
            os.unlink(handle.name)
        self.assertIn("## kv activity", out)
        self.assertIn("2 completed of 3 started", out)
        self.assertIn("get=1 put=1", out)
        self.assertIn("2 table swaps, 2 bucket migrations, "
                      "1 old tables freed (16 buckets)", out)
        self.assertIn("1 swap(s) still mid-migration", out)

    def test_trace_summary_scan_digest(self):
        def kv(name, v, ts=0):
            return {"name": name, "ph": "X", "ts": ts, "dur": 1, "tid": 1,
                    "args": {"v": v}}
        events = [
            kv("kv_op_start", 3),            # scan
            kv("kv_op_done", 3, ts=50),
            kv("kv_scan_window", 4),         # 4 entries this window
            kv("kv_scan_window", 2, ts=10),
            kv("kv_scan_resume", 0, ts=20),
        ]
        handle = tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False)
        json.dump(events, handle)
        handle.close()
        try:
            out = self.render(trace_report.emit_trace_summary, handle.name)
        finally:
            os.unlink(handle.name)
        self.assertIn("## kv activity", out)
        self.assertIn("scan=1", out)
        self.assertIn("2 window transactions delivered 6 entries", out)
        self.assertIn("1 cursor resumes", out)

    def test_trace_summary_no_scan_line_without_scan_events(self):
        def kv(name, v):
            return {"name": name, "ph": "X", "ts": 0, "dur": 1, "tid": 1,
                    "args": {"v": v}}
        events = [kv("kv_op_start", 0), kv("kv_op_done", 0)]
        handle = tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False)
        json.dump(events, handle)
        handle.close()
        try:
            out = self.render(trace_report.emit_trace_summary, handle.name)
        finally:
            os.unlink(handle.name)
        self.assertIn("## kv activity", out)
        self.assertNotIn("cursor resumes", out)

    def test_trace_summary_silent_without_kv_events(self):
        events = [{"name": "commit", "ph": "X", "ts": 0, "dur": 1,
                   "tid": 1}]
        handle = tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False)
        json.dump(events, handle)
        handle.close()
        try:
            out = self.render(trace_report.emit_trace_summary, handle.name)
        finally:
            os.unlink(handle.name)
        self.assertNotIn("kv activity", out)
        self.assertNotIn("window fusion", out)

    def test_trace_summary_fusion_section(self):
        def ev(name, v, ts=0):
            return {"name": name, "ph": "X", "ts": ts, "dur": 1, "tid": 1,
                    "args": {"v": v}}
        events = [
            ev("fused_window", 3), ev("fused_window", 2, ts=50),
            ev("fusion_fallback", 0, ts=100),
        ]
        handle = tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False)
        json.dump(events, handle)
        handle.close()
        try:
            out = self.render(trace_report.emit_trace_summary, handle.name)
        finally:
            os.unlink(handle.name)
        self.assertIn("## window fusion", out)
        self.assertIn("2 fused commits elided 5 window boundaries", out)
        self.assertIn("1 fallbacks", out)

    def test_trace_summary_empty_file(self):
        handle = tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False)
        handle.write("[]")
        handle.close()
        try:
            out = self.render(trace_report.emit_trace_summary, handle.name)
        finally:
            os.unlink(handle.name)
        self.assertIn("empty", out)


class CliTest(unittest.TestCase):
    def run_tool(self, rows, *argv):
        path = write(rows)
        try:
            return subprocess.run(
                [sys.executable, str(TOOLS / "trace_report.py"), path,
                 *argv],
                capture_output=True, text=True, timeout=60)
        finally:
            os.unlink(path)

    def test_renders_both_sections(self):
        proc = self.run_tool([
            OBS_HEADER,
            obs_row(),
            timeline_row("fig2", "intset", "rr-fa", 16, "0.00", 10),
            timeline_row("fig2", "intset", "rr-fa", 16, "5.00", 12),
        ])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("commit latency", proc.stdout)
        self.assertIn("footprint timeline", proc.stdout)

    def test_header_drift_exits_with_line_number(self):
        proc = self.run_tool([OBS_HEADER, obs_row(), obs_row() + ",7"])
        self.assertEqual(proc.returncode, 1)
        self.assertIn(":3: row has 21 columns", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_empty_input_fails(self):
        proc = self.run_tool(["# nothing to see"])
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no observability rows", proc.stderr)

    def test_width_flag_controls_chart_width(self):
        rows = [timeline_row("fig5", "alloc", "rr-fa", 4, f"{t}.0", t)
                for t in range(20)]
        proc = self.run_tool(rows, "--width", "12")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        chart_lines = [l for l in proc.stdout.splitlines()
                       if "peak=" in l]
        self.assertEqual(len(chart_lines), 1)
        spark_chars = [c for c in chart_lines[0] if c in trace_report.SPARK]
        self.assertEqual(len(spark_chars), 12)

    def test_trace_flag_appends_summary(self):
        events = [{"name": "quiesce", "ph": "X", "ts": 0, "dur": 1,
                   "tid": 7}]
        handle = tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False)
        json.dump(events, handle)
        handle.close()
        try:
            proc = self.run_tool([OBS_HEADER, obs_row()], "--trace",
                                 handle.name)
        finally:
            os.unlink(handle.name)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("1 events", proc.stdout)
        self.assertIn("quiesce", proc.stdout)


if __name__ == "__main__":
    unittest.main()
