#!/usr/bin/env python3
"""hohtm-lint: transactional-discipline static analyzer for this repo.

The TM's precise-reclamation guarantee rests on coding rules the compiler
never checks (every transactional allocation goes through tx.alloc /
tx.dealloc, every atomic in the TM core spells out its memory order, spin
loops park, hooks stay gated).  This linter machine-enforces them.

Usage:
    tools/hohtm_lint.py [--json] [--list-rules] [paths...]

With no paths it lints the default tree: src/ tests/ bench/ examples/.
Exit status: 0 = clean, 1 = findings, 2 = usage error.

Suppressions: a comment `// hohtm-lint: allow(<rule>)` on the same line as
the finding, or alone on the line directly above it, silences that rule
for that line.  Several rules may be listed: `allow(rule-a, rule-b)`.
Every rule is documented in docs/STATIC_ANALYSIS.md.

Dependency-free by design (stdlib only): the position-preserving lexer,
balanced-delimiter extraction, and transaction-body tracking live in the
shared tools/hohtm_cpp.py module (also used by tools/hohtm_analyze.py,
the path-sensitive transactional-effect analyzer).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hohtm_cpp
from hohtm_cpp import lex, line_of, match_balanced, tx_body_spans  # noqa: F401

# --------------------------------------------------------------------------
# Rule catalog. `paths` are path-prefix filters relative to the repo root
# (empty tuple = all linted files); `headers_only` restricts to .hpp/.h.
# --------------------------------------------------------------------------

RULES = {
    "tx-raw-alloc": (
        "no raw new/delete/malloc/free inside atomically() transaction "
        "bodies; use tx.alloc<T>(...) / tx.dealloc(p) so aborts roll "
        "allocations back and frees stay precise"
    ),
    "atomic-order": (
        "every std::atomic access in src/tm/, src/core/, src/ds/, "
        "src/kv/, src/reclaim/, and src/sched/ must pass an explicit "
        "std::memory_order argument"
    ),
    "no-sleep-sync": (
        "no sleep_for/sleep_until/usleep or this_thread::yield based "
        "synchronization (single-core CI box: timed sleeps hide races and "
        "burn the only CPU); block on a condition_variable or atomic wait"
    ),
    "spin-park": (
        "spin loops on an atomic must park: contain a Backoff pause, "
        "sched::spin_wait, cpu_relax, or atomic wait, so HOHTM_SCHED=ON "
        "exploration trees stay finite and the single CPU is not starved"
    ),
    "gated-hooks": (
        "trace/sched/tsan hook machinery (gate macros, __tsan_* symbols, "
        "detail::point_impl) may appear only inside the designated hook "
        "headers; everywhere else use the always-compiled wrappers"
    ),
    "pragma-once": "every header starts with #pragma once",
    "no-using-namespace": "headers must not contain using namespace",
    "padded-shared-array": (
        "per-thread shared arrays (sized by kMaxThreads) in src/ headers "
        "must wrap elements in util::CachePadded<> to prevent false sharing"
    ),
    "padded-metric-slots": (
        "shared metric-slot arrays (static atomics sized by kMaxMetrics) "
        "must sit behind util::CachePadded<> blocks: a flat static array "
        "makes every thread's counter bumps false-share with its "
        "neighbours, which the always-on metrics plane cannot afford"
    ),
}

# Files allowed to define/reference the compile-time hook gates directly:
# the hook headers themselves plus the scheduler machinery implementing
# detail::point_impl (always compiled; see schedpoint.hpp).
GATE_EXEMPT = (
    "src/util/trace.hpp",
    "src/util/trace.cpp",
    "src/sched/schedpoint.hpp",
    "src/sched/scheduler.hpp",
    "src/sched/scheduler.cpp",
    "src/util/tsan.hpp",
)

GATE_TOKENS = re.compile(
    r"HOHTM_TRACE_ENABLED|HOHTM_SCHED_ENABLED|HOHTM_TSAN_ENABLED"
    r"|__tsan_\w+|detail::point_impl"
)

ALLOW_RE = re.compile(r"hohtm-lint:\s*allow\(([^)]*)\)")

RAW_ALLOC_RE = re.compile(
    r"(?<![\w_])(new\b(?!\s*\()|delete\b|malloc\s*\(|calloc\s*\(|"
    r"realloc\s*\(|free\s*\()"
)
# `new` followed by `(` is placement new — still a raw allocation spelling,
# so match it separately rather than letting (?!\s*\() hide it.
PLACEMENT_NEW_RE = re.compile(r"(?<![\w_])new\s*\(")

ATOMIC_CALL_RE = re.compile(
    r"(?:\.|->)(load|store|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)

SLEEP_RE = re.compile(
    r"(?<![\w_])(sleep_for|sleep_until|usleep|nanosleep)\s*\("
    r"|this_thread::yield\s*\(\)"
)

SPIN_PARK_TOKENS = re.compile(
    r"backoff|\.pause\s*\(|spin_wait|cpu_relax|\.wait\s*\(|->wait\s*\(|"
    r"wait_even|wait_until|wait_all_inactive|yield"
)

USING_NAMESPACE_RE = re.compile(r"(?<![\w_])using\s+namespace\b")

KMAX_ARRAY_RE = re.compile(r"\[\s*(?:util::)?kMaxThreads\s*\]")

KMAX_METRICS_ARRAY_RE = re.compile(r"\[\s*(?:\w+::)*kMaxMetrics\s*\]")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def human(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


# --------------------------------------------------------------------------
# The linter proper. (The lexer and balanced-delimiter helpers live in
# tools/hohtm_cpp.py, shared with tools/hohtm_analyze.py.)
# --------------------------------------------------------------------------

class Linter:
    def __init__(self, root: str):
        self.root = root
        self.findings: list[Finding] = []

    def lint_file(self, path: str) -> None:
        rel = os.path.relpath(path, self.root).replace(os.sep, "/")
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"hohtm-lint: cannot read {rel}: {e}", file=sys.stderr)
            return
        code, comments = lex(text)
        lines = code.split("\n")
        line_starts = [0]
        for ln in lines[:-1]:
            line_starts.append(line_starts[-1] + len(ln) + 1)
        is_header = rel.endswith((".hpp", ".h"))
        raw_lines = text.split("\n")

        found: list[Finding] = []

        def add(line: int, rule: str, message: str) -> None:
            found.append(Finding(rel, line, rule, message))

        self._check_tx_raw_alloc(rel, code, line_starts, add)
        self._check_atomic_order(rel, code, line_starts, add)
        self._check_sleep_sync(rel, code, line_starts, lines, add)
        self._check_spin_park(rel, code, line_starts, add)
        self._check_gated_hooks(rel, code, lines, add)
        if is_header:
            self._check_pragma_once(rel, raw_lines, add)
            self._check_using_namespace(rel, lines, add)
            self._check_padded_array(rel, code, line_starts, add)
            self._check_padded_metric_slots(rel, code, line_starts, add)

        # Apply allow-pragmas: same line or the line directly above.
        def allowed(f: Finding) -> bool:
            for ln in (f.line, f.line - 1):
                m = ALLOW_RE.search(comments.get(ln, ""))
                if m and f.rule in [r.strip() for r in m.group(1).split(",")]:
                    return True
            return False

        self.findings.extend(f for f in found if not allowed(f))

    # -- rule 1 ------------------------------------------------------------
    def _check_tx_raw_alloc(self, rel, code, line_starts, add):
        spans = tx_body_spans(code)
        if not spans:
            return
        for pattern in (RAW_ALLOC_RE, PLACEMENT_NEW_RE):
            for m in pattern.finditer(code):
                if not any(a <= m.start() < b for a, b in spans):
                    continue
                token = m.group(0).strip().rstrip("(").strip()
                # `= delete` / `operator delete` declarations are not frees.
                before = code[max(0, m.start() - 16):m.start()]
                if token == "delete" and (
                    before.rstrip().endswith("=") or "operator" in before
                ):
                    continue
                add(
                    line_of(m.start(), line_starts),
                    "tx-raw-alloc",
                    f"raw `{token}` inside a transaction body; use "
                    "tx.alloc<T>(...)/tx.dealloc(p) so the allocation "
                    "rolls back on abort and the free waits for quiescence",
                )

    # -- rule 2 ------------------------------------------------------------
    ATOMIC_ORDER_DIRS = ("src/tm/", "src/core/", "src/ds/", "src/kv/",
                         "src/reclaim/", "src/sched/")

    def _check_atomic_order(self, rel, code, line_starts, add):
        if not rel.startswith(self.ATOMIC_ORDER_DIRS):
            return
        for m in ATOMIC_CALL_RE.finditer(code):
            paren = code.index("(", m.end() - 1)
            args = code[paren:match_balanced(code, paren, "(", ")")]
            if "memory_order" not in args:
                add(
                    line_of(m.start(), line_starts),
                    "atomic-order",
                    f"`{m.group(1)}` without an explicit std::memory_order; "
                    "the TM core documents every ordering decision at the "
                    "call site (seq_cst-by-default hides the protocol)",
                )

    # -- rule 3 ------------------------------------------------------------
    def _check_sleep_sync(self, rel, code, line_starts, lines, add):
        for m in SLEEP_RE.finditer(code):
            token = (m.group(1) or "this_thread::yield").strip()
            add(
                line_of(m.start(), line_starts),
                "no-sleep-sync",
                f"`{token}` used for synchronization; on the single-core CI "
                "box timed sleeps serialize the schedule and starve the "
                "peer — use a condition_variable deadline wait or "
                "std::atomic wait/notify",
            )

    # -- rule 4 ------------------------------------------------------------
    def _check_spin_park(self, rel, code, line_starts, add):
        for m in re.finditer(r"(?<![\w_])while\s*\(", code):
            paren = code.index("(", m.end() - 1)
            cond_end = match_balanced(code, paren, "(", ")")
            cond = code[paren:cond_end]
            if ".load(" not in cond and "->load(" not in cond and \
               "load_acquire" not in cond:
                continue
            # Loop statement: either `{...}` or a single statement up to `;`.
            rest = code[cond_end:]
            stripped = rest.lstrip()
            if stripped.startswith("{"):
                brace = cond_end + (len(rest) - len(stripped))
                body = code[brace:match_balanced(code, brace, "{", "}")]
            else:
                semi = rest.find(";")
                body = rest[: semi + 1 if semi != -1 else len(rest)]
            if SPIN_PARK_TOKENS.search(body) or SPIN_PARK_TOKENS.search(cond):
                continue
            if "break" in body or "return" in body:
                continue  # bounded by control flow; not a blind spin
            # A loop that does real work (any call in its body) is a worker
            # loop polling a stop flag, not a busy-wait; only pure spins —
            # empty bodies or callless statements — are findings.
            if re.search(r"[\w_]\s*\(", body):
                continue
            add(
                line_of(m.start(), line_starts),
                "spin-park",
                "spin loop on an atomic with no park (Backoff::pause, "
                "sched::spin_wait, cpu_relax, or atomic wait): burns the "
                "single CPU and makes HOHTM_SCHED exploration trees "
                "infinite",
            )

    # -- rule 5 ------------------------------------------------------------
    def _check_gated_hooks(self, rel, code, lines, add):
        if rel in GATE_EXEMPT or not rel.startswith(("src/", "tests/", "bench/")):
            return
        for i, ln in enumerate(lines, start=1):
            m = GATE_TOKENS.search(ln)
            if m:
                add(
                    i,
                    "gated-hooks",
                    f"`{m.group(0)}` outside the hook headers; call the "
                    "always-compiled wrappers (util::trace_event, "
                    "sched::point, hohtm::tsan::acquire/release) so "
                    "default builds stay hook-free by construction",
                )

    # -- rules 6-8 ---------------------------------------------------------
    def _check_pragma_once(self, rel, raw_lines, add):
        for i, ln in enumerate(raw_lines, start=1):
            s = ln.strip()
            if not s or s.startswith("//") or s.startswith("/*") or \
               s.startswith("*"):
                continue
            if s != "#pragma once":
                add(i, "pragma-once",
                    "first non-comment line of a header must be "
                    "`#pragma once`")
            return
        add(1, "pragma-once", "header is missing `#pragma once`")

    def _check_using_namespace(self, rel, lines, add):
        for i, ln in enumerate(lines, start=1):
            if USING_NAMESPACE_RE.search(ln):
                add(i, "no-using-namespace",
                    "`using namespace` in a header leaks into every "
                    "includer; qualify names instead")

    def _check_padded_array(self, rel, code, line_starts, add):
        if not rel.startswith("src/"):
            return
        for m in KMAX_ARRAY_RE.finditer(code):
            stmt_start = code.rfind(";", 0, m.start())
            stmt_start = max(stmt_start, code.rfind("{", 0, m.start()),
                             code.rfind("}", 0, m.start())) + 1
            stmt = code[stmt_start:m.end()]
            if "CachePadded" in stmt or "constexpr" in stmt or \
               "kMaxThreads]" not in stmt.replace(" ", ""):
                continue
            add(
                line_of(m.start(), line_starts),
                "padded-shared-array",
                "per-thread array sized by kMaxThreads without "
                "util::CachePadded elements: neighbouring threads' slots "
                "share a cache line (paper §3.1 assumes they do not)",
            )

    def _check_padded_metric_slots(self, rel, code, line_starts, add):
        if not rel.startswith("src/"):
            return
        for m in KMAX_METRICS_ARRAY_RE.finditer(code):
            stmt_start = code.rfind(";", 0, m.start())
            stmt_start = max(stmt_start, code.rfind("{", 0, m.start()),
                             code.rfind("}", 0, m.start())) + 1
            stmt = code[stmt_start:m.end()]
            # Only *shared* slot storage is a finding: a static array of
            # raw atomics. Non-static members (the per-thread cell block
            # that lives inside a CachePadded<> wrapper, as in
            # util::MetricsRegistry::Slots), CachePadded declarations,
            # and constexpr tables are all fine.
            if "static" not in stmt or "atomic" not in stmt:
                continue
            if "CachePadded" in stmt or "constexpr" in stmt:
                continue
            add(
                line_of(m.start(), line_starts),
                "padded-metric-slots",
                "static metric-slot array of raw atomics: every thread's "
                "counter bumps false-share with its neighbours; keep the "
                "slots inside per-thread util::CachePadded<> blocks "
                "(util::MetricsRegistry is the reference layout)",
            )


# --------------------------------------------------------------------------

DEFAULT_DIRS = ("src", "tests", "bench", "examples")


def collect(root: str, paths: list[str]) -> list[str]:
    return hohtm_cpp.collect(root, paths, "hohtm-lint")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="hohtm-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories to lint "
                    "(default: src tests bench examples)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as a JSON array")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, doc in RULES.items():
            print(f"{rule}\n    {doc}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or [d for d in DEFAULT_DIRS
                           if os.path.isdir(os.path.join(root, d))]
    linter = Linter(root)
    for f in collect(root, paths):
        linter.lint_file(f)

    linter.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    if args.json:
        print(json.dumps([f.as_json() for f in linter.findings], indent=2))
    else:
        for f in linter.findings:
            print(f.human())
        if linter.findings:
            print(f"hohtm-lint: {len(linter.findings)} finding(s)",
                  file=sys.stderr)
    return 1 if linter.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
