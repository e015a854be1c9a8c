#!/usr/bin/env python3
"""Summarize hohtm bench output into per-panel tables.

Usage:
    python3 tools/summarize_bench.py bench_output.txt [--figure fig2]
                                     [--causes]

Reads the CSV rows emitted by the bench binaries. The layout is
*self-describing*: the bench prints a `# columns: name1,name2,...` line
before the first row of every column set (src/harness/report.cpp), and
each data row is decoded by the names of the most recent such line — new
columns load without touching this tool. A data row with no header
before it, or whose width differs from that header's, is header drift:
the tool prints the row's line number and exits 1. Rows with malformed
numeric cells are skipped (a bad telemetry cell drops just that cell).

`timeline,...` rows (the reclamation-footprint samples) are skipped
here; tools/trace_report.py renders those, along with the latency
percentiles, as curves and tables.

Groups rows by figure and panel and prints one throughput table per
panel with series as rows and thread counts as columns — the same layout
as the paper's figures, so shapes (who wins, where crossovers fall) can
be eyeballed or diffed. With --causes (or automatically when telemetry
columns are present), an abort-rate table per panel attributes the
contention: aborts per 1k commits, split by cause, plus the cell's
live_peak when the observability columns are present.
"""

import argparse
import collections
import sys


class HeaderDrift(ValueError):
    """A data row whose width disagrees with the latest `# columns:`
    header (or that has no header before it)."""


def read_rows(path):
    """Yields (names, parts) for each data row of a bench capture, where
    `names` are the column names of the latest `# columns:` header, and
    (None, parts) for each `timeline,...` row. Comments, blank lines,
    banners and lines of fewer than six fields are not rows. Raises
    HeaderDrift, naming the line, when a row's width does not match its
    header."""
    names = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if line.startswith("# columns:"):
                names = [n.strip() for n in line.split(":", 1)[1].split(",")
                         if n.strip()]
                continue
            if not line or line.startswith("#") or line.startswith("====="):
                continue
            parts = line.split(",")
            if parts[0] == "timeline":
                yield None, parts
                continue
            if len(parts) < 6:
                continue
            if names is None:
                raise HeaderDrift(f"{path}:{lineno}: data row before any "
                                  "`# columns:` header")
            if len(parts) != len(names):
                raise HeaderDrift(
                    f"{path}:{lineno}: row has {len(parts)} columns but the "
                    f"latest `# columns:` header names {len(names)}")
            yield names, parts


def load(path):
    rows = []
    for names, parts in read_rows(path):
        if names is None:
            continue
        figure, panel, series, threads, mops, cv = parts[:6]
        try:
            threads = int(threads)
            mops = float(mops)
        except ValueError:
            continue
        counters = {}
        for name, value in zip(names[6:], parts[6:]):
            try:
                counters[name] = int(value)
            except ValueError:
                pass  # non-integer telemetry cell: keep the rest
        rows.append((figure, panel, series, threads, mops, counters or None))
    return rows


def summarize(rows, only_figure=None, show_causes=False):
    figures = collections.defaultdict(
        lambda: collections.defaultdict(dict))  # fig -> panel -> (series, t) -> mops
    counter_cells = {}  # (figure, panel, series, threads) -> counters dict
    thread_sets = collections.defaultdict(set)
    series_order = collections.defaultdict(list)
    for figure, panel, series, threads, mops, counters in rows:
        if only_figure and figure != only_figure:
            continue
        figures[figure][panel][(series, threads)] = mops
        if counters is not None:
            counter_cells[(figure, panel, series, threads)] = counters
        thread_sets[(figure, panel)].add(threads)
        key = (figure, panel)
        if series not in series_order[key]:
            series_order[key].append(series)

    for figure in sorted(figures):
        for panel in figures[figure]:
            key = (figure, panel)
            threads = sorted(thread_sets[key])
            print(f"\n## {figure} / {panel}  (Mops/s)")
            header = "series".ljust(14) + "".join(f"{t:>9}" for t in threads)
            print(header)
            print("-" * len(header))
            cells = figures[figure][panel]
            for series in series_order[key]:
                row = series.ljust(14)
                for t in threads:
                    value = cells.get((series, t))
                    row += f"{value:9.3f}" if value is not None else "        -"
                print(row)
            # Flag the winner at the highest thread count.
            top = max(threads)
            best = max(
                ((s, cells.get((s, top), 0.0)) for s in series_order[key]),
                key=lambda pair: pair[1],
            )
            print(f"best @ {top} threads: {best[0]} ({best[1]:.3f})")
            if show_causes:
                emit_cause_table(figure, panel, series_order[key], top,
                                 counter_cells)
            emit_kv_table(figure, panel, series_order[key], top,
                          counter_cells)


def emit_cause_table(figure, panel, series_list, threads, counter_cells):
    """Abort attribution at the highest thread count of the panel: events
    per 1k commits, per cause — who aborts, and why."""
    have = [(s, counter_cells.get((figure, panel, s, threads)))
            for s in series_list]
    have = [(s, c) for s, c in have if c]
    if not have:
        return
    causes = [("validation", "validation"), ("lock", "lock"),
              ("user", "user"), ("serial_esc", "serial_esc"),
              ("revocations", "revocations"), ("hoh_retries", "hoh_retries"),
              ("res_lost", "res_lost")]
    # Fusion columns (PR 6 layouts) only when any series carries them.
    if any("fused_windows" in c for _, c in have):
        causes += [("fusion_fallbacks", "fusion_fb"),
                   ("fused_windows", "fused_win")]
    # Causal-attribution columns (PR 7 layouts): losses / aborts whose
    # aborter thread is known.
    if any("res_lost_attr" in c for _, c in have):
        causes += [("res_lost_attr", "lost_attr"),
                   ("aborts_attr", "aborts_attr")]
    # Quiescence fences (PR 10 layouts): the precise-reclamation
    # synchrony cost, the denominator batch fusion drives down.
    if any("quiescence_waits" in c for _, c in have):
        causes += [("quiescence_waits", "qwaits")]
    show_peak = any("live_peak" in c for _, c in have)
    header = ("series".ljust(14) + f"{'aborts/1k':>11}" +
              "".join(f"{label:>12}" for _, label in causes) +
              (f"{'live_peak':>11}" if show_peak else ""))
    print(f"   abort attribution @ {threads} threads (per 1k commits)")
    print(header)
    print("-" * len(header))
    for series, c in have:
        commits = max(c["commits"], 1)
        row = series.ljust(14) + f"{1000.0 * c['aborts'] / commits:11.2f}"
        for cause, _ in causes:
            row += f"{1000.0 * c.get(cause, 0) / commits:12.2f}"
        if show_peak:
            row += f"{c.get('live_peak', 0):11d}"
        print(row)


def emit_kv_table(figure, panel, series_list, threads, counter_cells):
    """KV workload columns at the highest thread count: hit rate over the
    keyed ops, how much resize work (bucket migrations, table swaps) ran
    inside the measured window, and — when the scan triple is present
    (YCSB E) — scans, committed scan windows, the windows-per-scan
    ratio, and cursor resumes after a revoked handover."""
    have = [(s, counter_cells.get((figure, panel, s, threads)))
            for s in series_list]
    have = [(s, c) for s, c in have if c and "kv_hits" in c]
    if not have:
        return
    show_scans = any(c.get("kv_scans", 0) or c.get("kv_scan_windows", 0)
                     for _, c in have)
    header = (
        "series".ljust(14) + f"{'hits':>12}" + f"{'misses':>12}" +
        f"{'hit%':>8}" + f"{'migrations':>12}" + f"{'resizes':>9}")
    if show_scans:
        header += (f"{'scans':>10}" + f"{'scan_win':>10}" +
                   f"{'win/scan':>9}" + f"{'resumes':>9}")
    print(f"   kv workload @ {threads} threads")
    print(header)
    print("-" * len(header))
    for series, c in have:
        keyed = max(c["kv_hits"] + c["kv_misses"], 1)
        row = (series.ljust(14) +
               f"{c['kv_hits']:12d}" + f"{c['kv_misses']:12d}" +
               f"{100.0 * c['kv_hits'] / keyed:8.2f}" +
               f"{c['kv_migrations']:12d}" + f"{c['kv_resizes']:9d}")
        if show_scans:
            scans = c.get("kv_scans", 0)
            windows = c.get("kv_scan_windows", 0)
            row += (f"{scans:10d}" + f"{windows:10d}" +
                    f"{windows / max(scans, 1):9.2f}" +
                    f"{c.get('kv_scan_resumes', 0):9d}")
        print(row)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path")
    parser.add_argument("--figure", default=None)
    parser.add_argument("--causes", action="store_true",
                        help="force the abort-attribution tables")
    args = parser.parse_args()
    try:
        rows = load(args.path)
    except HeaderDrift as drift:
        print(f"header drift: {drift}", file=sys.stderr)
        return 1
    if not rows:
        print("no bench rows found", file=sys.stderr)
        return 1
    has_telemetry = any(counters is not None for *_rest, counters in rows)
    summarize(rows, args.figure, show_causes=args.causes or has_telemetry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
