#!/usr/bin/env python3
"""Render (and check) a hohtm metrics-plane snapshot.

Usage:
    python3 tools/metrics_report.py metrics.json [--check] [--top N]

The input is the JSON document written by util::MetricsRegistry — either
the `$HOHTM_METRICS_FILE` atexit dump that every bench and serving
binary honours, or the body of kv::Service::stats_snapshot() (whose
wrapper object {"service":...,"metrics":{...}} is accepted too).

Renders the always-on counters and gauges, the causal abort attribution
("who aborted whom": per-aborter-slot and per-site loss buckets), the kv
contention heatmap, and the reclamation-stall watchdog state.

With --check, additionally verifies the attribution invariants the
metrics plane guarantees by construction and exits nonzero when any is
violated (scripts/check.sh --metrics and the CI perf-smoke job run
this):

  * losses_attributed + losses_unknown == tm.res_lost   (exactly)
  * sum(loss_by_aborter) == tm.res_lost                 (exactly)
  * sum(loss_by_site)    == tm.res_lost                 (exactly)
  * sum(aborted_by)      <= tm.aborts
"""

import argparse
import json
import sys


def load(path):
    with open(path) as handle:
        doc = json.load(handle)
    if "metrics" in doc and "counters" not in doc:
        doc = doc["metrics"]  # unwrap a Service::stats_snapshot() document
    return doc


def emit_scalars(title, table):
    if not table:
        return
    print(f"\n## {title}")
    width = max(len(k) for k in table)
    for name in sorted(table):
        print(f"  {name.ljust(width)}  {table[name]}")


def emit_attribution(tm, top_n):
    attr = tm.get("attribution")
    if attr is None:
        return
    print("\n## causal abort attribution")
    print(f"  losses: {tm.get('res_lost', 0)} total = "
          f"{attr.get('losses_attributed', 0)} attributed + "
          f"{attr.get('losses_unknown', 0)} unknown")
    print(f"  conflict aborts attributed: {attr.get('aborts_attributed', 0)} "
          f"(+{attr.get('aborts_unknown', 0)} unknown) of "
          f"{tm.get('aborts', 0)} total")
    print(f"  fusion fallbacks: {attr.get('fusion_fb_attributed', 0)} "
          f"attributed, {attr.get('fusion_fb_unknown', 0)} unknown")
    sites = attr.get("loss_by_site", {})
    nonzero = {k: v for k, v in sites.items() if v}
    if nonzero:
        print("  losses by revoke site:")
        width = max(len(k) for k in nonzero)
        for name, count in sorted(nonzero.items(), key=lambda kv: -kv[1]):
            print(f"    {name.ljust(width)}  {count}")
    by_aborter = attr.get("loss_by_aborter", [])
    slots = [(slot, n) for slot, n in enumerate(by_aborter[:-1]) if n]
    if slots:
        slots.sort(key=lambda pair: -pair[1])
        print(f"  top aborter slots (of {len(slots)} active):")
        for slot, count in slots[:top_n]:
            print(f"    slot {slot:2d}  {count}")


def emit_heatmap(cells):
    if not cells:
        return
    print("\n## kv contention heatmap (hottest cells)")
    peak = max(c["weight"] for c in cells)
    for c in cells:
        bar = "#" * max(1, round(20 * c["weight"] / peak))
        print(f"  shard {c['shard']:2d} cell {c['cell']:5d}  "
              f"{str(c['weight']).rjust(8)}  {bar}")


def emit_net(counters):
    """Serving-tier counters: pipeline batches (and how many of them ran
    inline on the event loop instead of through the ring), ops committed
    inside fused groups (with the per-batch fusion yield), event-loop
    parks (blocking epoll_wait calls, per batch) and zero-timeout polls,
    and raw wire traffic — registered by net::Server as net.* counters."""
    batches = counters.get("net.batches", 0)
    fused = counters.get("net.fused_ops", 0)
    if not batches and not fused:
        return
    print("\n## serving tier")
    print(f"  batches: {batches}, fused ops: {fused} "
          f"({fused / max(batches, 1):.2f} per batch)")
    print(f"  inline batches: {counters.get('net.inline_batches', 0)} "
          f"(single-op, run on the event loop)")
    parks = counters.get("net.loop_parks", 0)
    print(f"  event loop: {parks} parks ({parks / max(batches, 1):.3f} per "
          f"batch), {counters.get('net.loop_polls', 0)} polls")
    print(f"  wire: {counters.get('net.bytes_in', 0)} bytes in, "
          f"{counters.get('net.bytes_out', 0)} bytes out")


def emit_watchdog(wd):
    if not wd:
        return
    print("\n## reclamation-stall watchdog")
    state = ("STALLED" if wd.get("stalled_threads", 0) > 0 else "ok")
    print(f"  {state}: {wd.get('stalled_threads', 0)} stalled of "
          f"{wd.get('active_threads', 0)} active threads "
          f"(threshold {wd.get('threshold_ns', 0)} ns, "
          f"max stall {wd.get('max_stall_ns', 0)} ns, "
          f"{wd.get('stall_events', 0)} lifetime events)")


def check(doc):
    """Attribution-sum invariants; returns a list of violation strings."""
    problems = []
    tm = doc.get("sections", {}).get("tm")
    if tm is None:
        return ["no tm section in snapshot"]
    attr = tm.get("attribution", {})
    losses = tm.get("res_lost", 0)
    attributed = attr.get("losses_attributed", 0)
    unknown = attr.get("losses_unknown", 0)
    if attributed + unknown != losses:
        problems.append(f"losses_attributed({attributed}) + "
                        f"losses_unknown({unknown}) != res_lost({losses})")
    by_aborter = sum(attr.get("loss_by_aborter", []))
    if by_aborter != losses:
        problems.append(f"sum(loss_by_aborter)={by_aborter} != "
                        f"res_lost({losses})")
    by_site = sum(attr.get("loss_by_site", {}).values())
    if by_site != losses:
        problems.append(f"sum(loss_by_site)={by_site} != res_lost({losses})")
    aborted_by = sum(attr.get("aborted_by", []))
    if aborted_by > tm.get("aborts", 0):
        problems.append(f"sum(aborted_by)={aborted_by} > "
                        f"aborts({tm.get('aborts', 0)})")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="metrics snapshot JSON")
    parser.add_argument("--check", action="store_true",
                        help="verify attribution invariants; nonzero exit "
                             "on violation")
    parser.add_argument("--top", type=int, default=8,
                        help="aborter slots to list")
    args = parser.parse_args()
    doc = load(args.path)
    emit_scalars("counters", doc.get("counters", {}))
    emit_scalars("gauges", doc.get("gauges", {}))
    sections = doc.get("sections", {})
    if "tm" in sections:
        tm = sections["tm"]
        emit_scalars("tm", {k: v for k, v in tm.items()
                            if isinstance(v, int)})
        emit_attribution(tm, args.top)
    emit_net(doc.get("counters", {}))
    emit_heatmap(sections.get("kv_heatmap", []))
    emit_watchdog(sections.get("watchdog", {}))
    if args.check:
        problems = check(doc)
        if problems:
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            return 1
        print("\nattribution invariants ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
