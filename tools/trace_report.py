#!/usr/bin/env python3
"""Render latency histograms and reclamation-footprint timelines from
hohtm bench output — the companion to summarize_bench.py (which renders
the throughput tables).

Usage:
    python3 tools/trace_report.py bench_output.txt [--figure figN]
                                  [--trace trace.json] [--width 60]

Reads the same CSV the bench binaries print and renders:

  * one commit-latency table per figure/panel (p50/p95/p99/max in
    microseconds, per series and thread count) from the observability
    columns, located by name from the latest `# columns:` header line
    (rows are read as in summarize_bench.py: a row whose width disagrees
    with its header is header drift, reported by line number, exit 1).
    All-zero unless the bench was built with HOHTM_TRACE=ON;

  * one footprint chart per figure/panel from the `timeline,...` rows
    (emitted under HOH_BENCH_FOOTPRINT_MS, or always by the
    mem_pressure example): each series becomes a block-character curve
    of live objects over time, so RR's flat line and the deferred
    schemes' backlog growth are visible in a terminal.

With --trace, also summarizes a Chrome/Perfetto trace-event JSON file
(written by a HOHTM_TRACE=ON binary when HOHTM_TRACE_FILE is set):
events per kind, per-thread counts, and the covered time span. The same
file loads directly in chrome://tracing or ui.perfetto.dev.
"""

import argparse
import collections
import json
import os
import sys

from summarize_bench import HeaderDrift, read_rows

LATENCY_COLS = ("commit_p50_ns", "commit_p95_ns", "commit_p99_ns",
                "commit_max_ns")
SPARK = "▁▂▃▄▅▆▇█"


def load(path):
    """Returns (latency_rows, timelines).

    latency_rows: list of (figure, panel, series, threads, {col: ns})
    timelines: {(figure, panel): {(series, threads): [(t, live), ...]}}
    """
    latency_rows = []
    timelines = collections.defaultdict(lambda: collections.defaultdict(list))
    for names, parts in read_rows(path):
        if names is None:
            if len(parts) < 7:
                continue
            _, figure, panel, series, threads, t, live = parts[:7]
            try:
                timelines[(figure, panel)][(series, int(threads))].append(
                    (float(t), int(live)))
            except ValueError:
                pass
            continue
        if LATENCY_COLS[0] not in names or "live_peak" not in names:
            continue
        lat_start = names.index(LATENCY_COLS[0])
        figure, panel, series, threads = parts[:4]
        try:
            threads = int(threads)
            values = dict(zip(LATENCY_COLS,
                              (int(v) for v in
                               parts[lat_start:lat_start + 4])))
            values["live_peak"] = int(parts[names.index("live_peak")])
        except ValueError:
            continue
        latency_rows.append((figure, panel, series, threads, values))
    return latency_rows, timelines


def us(ns):
    return ns / 1000.0


def emit_latency_tables(latency_rows, only_figure=None):
    panels = collections.defaultdict(list)
    for figure, panel, series, threads, values in latency_rows:
        if only_figure and figure != only_figure:
            continue
        panels[(figure, panel)].append((series, threads, values))
    for (figure, panel) in sorted(panels):
        rows = panels[(figure, panel)]
        if all(v["commit_max_ns"] == 0 for _, _, v in rows):
            print(f"\n## {figure} / {panel}  commit latency: all zero "
                  "(bench not built with HOHTM_TRACE=ON)")
            continue
        print(f"\n## {figure} / {panel}  commit latency (us)")
        header = ("series".ljust(14) + f"{'threads':>8}" +
                  f"{'p50':>10}{'p95':>10}{'p99':>10}{'max':>12}" +
                  f"{'live_peak':>11}")
        print(header)
        print("-" * len(header))
        for series, threads, v in rows:
            print(series.ljust(14) + f"{threads:>8}" +
                  f"{us(v['commit_p50_ns']):>10.2f}" +
                  f"{us(v['commit_p95_ns']):>10.2f}" +
                  f"{us(v['commit_p99_ns']):>10.2f}" +
                  f"{us(v['commit_max_ns']):>12.2f}" +
                  f"{v['live_peak']:>11}")


def sparkline(samples, width, lo, hi):
    """Resample `samples` ([(t, live)]) into `width` buckets by time and
    render one block character per bucket, scaled to [lo, hi]."""
    if not samples:
        return ""
    t0 = samples[0][0]
    t1 = samples[-1][0]
    span = (t1 - t0) or 1.0
    buckets = [[] for _ in range(width)]
    for t, live in samples:
        index = min(width - 1, int((t - t0) / span * width))
        buckets[index].append(live)
    scale = (hi - lo) or 1
    out = []
    last = samples[0][1]
    for bucket in buckets:
        value = max(bucket) if bucket else last
        if bucket:
            last = bucket[-1]
        level = (value - lo) / scale
        out.append(SPARK[max(0, min(len(SPARK) - 1,
                                    int(level * (len(SPARK) - 1) + 0.5)))])
    return "".join(out)


def emit_footprint_charts(timelines, only_figure=None, width=60):
    for (figure, panel) in sorted(timelines):
        if only_figure and figure != only_figure:
            continue
        series_map = timelines[(figure, panel)]
        all_live = [live for samples in series_map.values()
                    for _, live in samples]
        lo, hi = min(all_live), max(all_live)
        print(f"\n## {figure} / {panel}  footprint timeline "
              f"(live objects, scale {lo}..{hi})")
        label_width = max(len(f"{s}@{t}") for s, t in series_map) + 2
        for (series, threads) in sorted(series_map):
            samples = sorted(series_map[(series, threads)])
            peak = max(live for _, live in samples)
            final = samples[-1][1]
            label = f"{series}@{threads}".ljust(label_width)
            print(f"{label}{sparkline(samples, width, lo, hi)}  "
                  f"peak={peak} final={final} n={len(samples)}")


def emit_trace_summary(path):
    with open(path) as handle:
        events = json.load(handle)
    if not events:
        print("\n## trace: empty")
        return
    by_name = collections.Counter(e["name"] for e in events)
    by_tid = collections.Counter(e["tid"] for e in events)
    ts = [e["ts"] for e in events]
    print(f"\n## trace: {len(events)} events over "
          f"{(max(ts) - min(ts)) / 1000.0:.3f} ms "
          f"({len(by_tid)} threads)")
    width = max(len(n) for n in by_name)
    for name, count in by_name.most_common():
        print(f"  {name.ljust(width)}  {count}")
    emit_kv_trace_summary(events)
    emit_fusion_trace_summary(events)


KV_OPCODES = ("get", "put", "del", "scan")


def emit_kv_trace_summary(events):
    """KV-specific digest of a trace: completed ops by opcode (from the
    kv_op_done args), migration-window and resize activity, and the
    range-scan window/resume traffic. Silent when the trace has no kv
    events (non-KV benches)."""
    ops = collections.Counter()
    started = 0
    migrations = 0
    swaps = 0
    frees = 0
    freed_buckets = 0
    scan_windows = 0
    scan_entries = 0
    scan_resumes = 0
    for e in events:
        name = e.get("name", "")
        arg = e.get("args", {}).get("v", 0)
        if name == "kv_op_start":
            started += 1
        elif name == "kv_op_done":
            code = int(arg)
            label = (KV_OPCODES[code] if code < len(KV_OPCODES)
                     else f"op{code}")
            ops[label] += 1
        elif name == "kv_migrate":
            migrations += 1
        elif name == "kv_table_swap":
            swaps += 1
        elif name == "kv_table_free":
            frees += 1
            freed_buckets += int(arg)
        elif name == "kv_scan_window":
            scan_windows += 1
            scan_entries += int(arg)
        elif name == "kv_scan_resume":
            scan_resumes += 1
    if not (started or ops or migrations or swaps or frees or scan_windows
            or scan_resumes):
        return
    print("\n## kv activity")
    done = sum(ops.values())
    breakdown = " ".join(f"{label}={ops[label]}" for label in KV_OPCODES
                         if ops[label])
    print(f"  ops: {done} completed of {started} started  ({breakdown})")
    print(f"  resize: {swaps} table swaps, {migrations} bucket migrations, "
          f"{frees} old tables freed ({freed_buckets} buckets)")
    if frees < swaps:
        print(f"  note: {swaps - frees} swap(s) still mid-migration when "
              "the trace ended")
    if scan_windows or scan_resumes:
        print(f"  scans: {scan_windows} window transactions delivered "
              f"{scan_entries} entries; {scan_resumes} cursor resumes "
              "after a revoked handover")


def emit_fusion_trace_summary(events):
    """Window-fusion digest: committed fused traversals (with the total
    boundaries they elided, from the fused_window args) versus fallbacks
    to the small-window protocol. Silent when the trace predates fusion
    or no traversal fused."""
    fused_txs = 0
    elided = 0
    fallbacks = 0
    for e in events:
        name = e.get("name", "")
        if name == "fused_window":
            fused_txs += 1
            elided += int(e.get("args", {}).get("v", 0))
        elif name == "fusion_fallback":
            fallbacks += 1
    if not (fused_txs or fallbacks):
        return
    print("\n## window fusion")
    print(f"  {fused_txs} fused commits elided {elided} window "
          f"boundaries; {fallbacks} fallbacks to the small-window "
          "protocol")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="bench output (CSV rows on stdout)")
    parser.add_argument("--figure", default=None)
    parser.add_argument("--trace", default=None,
                        help="Chrome trace-event JSON from HOHTM_TRACE_FILE")
    parser.add_argument("--width", type=int, default=60,
                        help="footprint chart width in characters")
    args = parser.parse_args()
    try:
        latency_rows, timelines = load(args.path)
    except HeaderDrift as drift:
        print(f"header drift: {drift}", file=sys.stderr)
        return 1
    if not latency_rows and not timelines and not args.trace:
        print("no observability rows found (need the commit-latency "
              "columns or timeline rows)", file=sys.stderr)
        return 1
    emit_latency_tables(latency_rows, args.figure)
    emit_footprint_charts(timelines, args.figure, args.width)
    if args.trace:
        emit_trace_summary(args.trace)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # downstream closed early (e.g. | head)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
