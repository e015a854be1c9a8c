#pragma once

#include <string>

#include "harness/driver.hpp"

namespace hohtm::harness {

/// Uniform reporting for every bench binary: one self-describing CSV
/// record per cell. Each bench prints a block per figure panel:
///
///   # fig2: singly list, ...
///   # fig2 panel=6bit-33pct
///   # columns: figure,panel,series,threads,mops,cv_pct,commits,...
///   fig2,6bit-33pct,RR-XO,1,1.234,0.8,123456,17,9,0,8,0,42,3,12,5,...
///
/// The one rule: a data row is decoded only by the `# columns:` line
/// printed most recently before it, and emit_row prints that line
/// whenever a row's column names differ from the last header it
/// printed. tools/summarize_bench.py and tools/trace_report.py index
/// columns by those names and reject a row whose width disagrees.
///
/// Every row starts with the standard block: figure, panel, series,
/// threads, Mops/s mean and cv% (the paper's throughput-vs-threads
/// curves), then the TM telemetry summed over the cell's timed trials —
/// commits, aborts, one column per tm::AbortCause, res_lost,
/// fused_windows — the commit-latency percentiles commit_p50/p95/p99/
/// max_ns (zero unless built with HOHTM_TRACE=ON), live_peak,
/// res_lost_attr and aborts_attr (losses / aborts whose aborter is
/// known) and quiescence_waits. The cell's named `columns` follow in
/// order.
///
/// When footprint sampling is on (HOH_BENCH_FOOTPRINT_MS), each cell is
/// followed by its reclamation-footprint timeline, one sample per row:
///
///   timeline,fig5,9bit-0pct,M-RR-XO,8,12.5,523
///
/// (t in ms since the timed phase started, then live objects net of the
/// cell's baseline). tools/trace_report.py renders these as curves;
/// summarize_bench.py skips them.
void emit_header(const std::string& figure, const std::string& description);
void emit_panel_note(const std::string& figure, const std::string& panel);
void emit_row(const std::string& figure, const std::string& panel,
              const std::string& series, int threads, const CellResult& cell);

/// One footprint-timeline sample row (also used directly by examples
/// whose x-axis is operation count rather than milliseconds).
void emit_timeline_row(const std::string& figure, const std::string& panel,
                       const std::string& series, int threads, double t,
                       long long live);

}  // namespace hohtm::harness
