#!/usr/bin/env bash
# One-command verification: configure, build, test, smoke the examples,
# and run a fast benchmark pass. Mirrors what a CI pipeline would do.
# Configures with CMake's default generator, so it reuses a build/ made
# by the plain tier-1 command.
#
# Usage: scripts/check.sh [--lint] [--analyze] [--tsan] [--asan] [--ubsan]
#                         [--sched] [--metrics] [--net] [--full-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
SANITIZE=""
TSAN=0
ASAN=0
UBSAN=0
SCHED=0
LINT=0
ANALYZE=0
METRICS=0
NET=0
FULL_BENCH=0
for arg in "$@"; do
  case "$arg" in
    --lint)
      # Static analysis only: hohtm-lint + hohtm-analyze
      # (docs/STATIC_ANALYSIS.md) plus clang-tidy when available. No
      # compile step.
      LINT=1
      ;;
    --analyze)
      # The path-sensitive effect analyzer alone (tools/hohtm_analyze.py):
      # precise-reclamation, boundary-pairing, cross-file atomic
      # protocol, and gate reachability over src/. No compile step.
      ANALYZE=1
      ;;
    --tsan)
      # Rebuild under ThreadSanitizer and run the FULL suite with no
      # suppression file: the happens-before edges the backends establish
      # through fences are mirrored explicitly via src/util/tsan.hpp, so
      # a tsan report anywhere — including the single-threaded and tools
      # suites — is a bug, not noise (docs/STATIC_ANALYSIS.md).
      BUILD_DIR=build-tsan
      SANITIZE="-DHOHTM_SANITIZE=thread"
      TSAN=1
      ;;
    --asan)
      # Rebuild under AddressSanitizer + UBSan and run the full suite:
      # precise reclamation is the point of the paper, so a use-after-free
      # or leak anywhere is a correctness bug, not noise. UBSan is built
      # non-recoverable (CMakeLists.txt), so a UB report fails its test.
      BUILD_DIR=build-asan
      SANITIZE="-DHOHTM_SANITIZE=address,undefined"
      ASAN=1
      ;;
    --ubsan)
      # Rebuild under UndefinedBehaviorSanitizer alone and run the full
      # suite. --asan already folds UBSan in; this mode isolates UB
      # reports from ASan's shadow-memory slowdown and interceptors, so
      # an alignment/overflow/vptr report names itself directly.
      BUILD_DIR=build-ubsan
      SANITIZE="-DHOHTM_SANITIZE=undefined"
      UBSAN=1
      ;;
    --sched)
      # Rebuild with the virtual-scheduler hooks compiled in and run the
      # schedule-exploration + differential suites only (docs/TESTING.md).
      # Scale exploration budgets with HOH_SCHED_DEPTH=<n>.
      BUILD_DIR=build-sched
      SANITIZE="-DHOHTM_SCHED=ON"
      SCHED=1
      ;;
    --metrics)
      # Metrics-plane stage (docs/OBSERVABILITY.md): the `metrics`-labeled
      # tests with $HOHTM_METRICS_FILE set, so the contended attribution
      # cell (KvAttribution.*) leaves its snapshot behind, then the
      # attribution-invariant check over that snapshot.
      METRICS=1
      ;;
    --net)
      # Serving-tier stage (docs/SERVING.md): the `net`-labeled tests
      # alone, each run five times so a race between the event loops
      # (accept hand-off, shutdown) fails here rather than as a rare
      # tier-1 flake — frame codec fuzzing, the loopback differential
      # oracle, the shared-key check across loops, the depth-1 vs
      # depth-16 fusion gate (fewer commits AND fewer quiescence waits
      # per op at depth 16, at most 1.001 commits per op at depth 1),
      # backpressure, fairness, and stalled-client reclamation (watchdog
      # clean, Gauge-exact footprint).
      NET=1
      ;;
    --full-bench) FULL_BENCH=1 ;;
    *)
      echo "unknown option: $arg" >&2
      exit 2
      ;;
  esac
done

run_analyze() {
  echo "== analyze (tools/hohtm_analyze.py)"
  python3 tools/hohtm_analyze.py
}

run_lint() {
  echo "== lint (tools/hohtm_lint.py)"
  python3 tools/hohtm_lint.py
  run_analyze
  # clang-tidy is advisory depth on top of hohtm-lint: run it when the
  # toolchain provides it (CI's lint job does; the dev box may not).
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint (clang-tidy)"
    cmake -B build-tidy -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Headers are covered transitively via the .cpp that includes them.
    find src -name '*.cpp' -print0 |
      xargs -0 clang-tidy -p build-tidy --quiet --warnings-as-errors='*'
  else
    echo "-- clang-tidy not on PATH; skipping (hohtm-lint is the gate)"
  fi
}

if [ "$LINT" -eq 1 ]; then
  run_lint
  echo "LINT CHECKS PASSED"
  exit 0
fi

if [ "$ANALYZE" -eq 1 ]; then
  run_analyze
  echo "ANALYZE CHECKS PASSED"
  exit 0
fi

echo "== configure (${BUILD_DIR})"
cmake -B "$BUILD_DIR" $SANITIZE

echo "== build"
cmake --build "$BUILD_DIR" --parallel "$(nproc)"

if [ "$TSAN" -eq 1 ]; then
  echo "== tests (tsan, full suite, no suppressions)"
  if ! ctest --test-dir "$BUILD_DIR" --output-on-failure; then
    echo "FAIL: test suite under ThreadSanitizer" >&2
    exit 1
  fi
  echo "TSAN CHECKS PASSED"
  exit 0
fi

if [ "$ASAN" -eq 1 ]; then
  echo "== tests (asan+ubsan, full suite)"
  if ! ctest --test-dir "$BUILD_DIR" --output-on-failure; then
    echo "FAIL: test suite under AddressSanitizer" >&2
    exit 1
  fi
  echo "ASAN CHECKS PASSED"
  exit 0
fi

if [ "$UBSAN" -eq 1 ]; then
  echo "== tests (ubsan, full suite)"
  if ! ctest --test-dir "$BUILD_DIR" --output-on-failure; then
    echo "FAIL: test suite under UndefinedBehaviorSanitizer" >&2
    exit 1
  fi
  echo "UBSAN CHECKS PASSED"
  exit 0
fi

if [ "$SCHED" -eq 1 ]; then
  echo "== tests (window-fusion exploration)"
  echo "   HOH_SCHED_DEPTH=${HOH_SCHED_DEPTH:-1}"
  # Fusion first, as its own stage: the fused-traversal-vs-revoke race,
  # the fallback bookkeeping invariant (fused_aborts ==
  # fusion_fallbacks), and the kFusionNeverFallback mutant with its
  # byte-identical replay (tests/sched/sched_fusion_test.cpp). A fusion
  # regression should name itself, not hide inside the generic sweep.
  if ! ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'SchedFusion'; then
    echo "FAIL: window-fusion schedule-exploration tests" >&2
    exit 1
  fi
  echo "== tests (schedule exploration + differential oracle)"
  if ! ctest --test-dir "$BUILD_DIR" --output-on-failure -L 'sched|differential' -E 'SchedFusion'; then
    echo "FAIL: schedule-exploration tests" >&2
    exit 1
  fi
  echo "SCHED CHECKS PASSED"
  exit 0
fi

if [ "$METRICS" -eq 1 ]; then
  echo "== tests (metrics plane: ctest -L metrics)"
  METRICS_OUT="$PWD/$BUILD_DIR/metrics.json"
  rm -f "$METRICS_OUT"
  if ! HOHTM_METRICS_FILE="$METRICS_OUT" \
      ctest --test-dir "$BUILD_DIR" --output-on-failure -L metrics; then
    echo "FAIL: metrics-plane tests" >&2
    exit 1
  fi
  echo "== attribution invariants (tools/metrics_report.py --check)"
  python3 tools/metrics_report.py "$METRICS_OUT" --check
  echo "METRICS CHECKS PASSED"
  exit 0
fi

if [ "$NET" -eq 1 ]; then
  echo "== tests (serving tier: ctest -L net, 5 repeats)"
  if ! ctest --test-dir "$BUILD_DIR" --output-on-failure -L net \
      --repeat until-fail:5; then
    echo "FAIL: serving-tier tests" >&2
    exit 1
  fi
  echo "NET CHECKS PASSED"
  exit 0
fi

echo "== tsan-annotation smoke (default build must be hook-free)"
# src/util/tsan.hpp compiles to nothing outside tsan builds; a __tsan_*
# reference in the default archive would mean the gate leaked.
if nm -u "$BUILD_DIR/src/libhohtm.a" | grep -q '__tsan_'; then
  echo "FAIL: default build references __tsan_* symbols" >&2
  exit 1
fi
echo "-- libhohtm.a carries no __tsan_* references"

run_lint

echo "== tests"
# Tier-1 gate: any ctest failure fails the whole check, explicitly.
if ! ctest --test-dir "$BUILD_DIR" --output-on-failure; then
  echo "FAIL: tier-1 test suite" >&2
  exit 1
fi

echo "== examples"
for example in quickstart bank mem_pressure task_queue backend_tour; do
  echo "-- $example"
  "./$BUILD_DIR/examples/$example" > /dev/null
done

echo "== benches"
if [ "$FULL_BENCH" -eq 1 ]; then
  for bench in "$BUILD_DIR"/bench/*; do
    echo "-- $bench"
    "$bench"
  done
else
  # Quick smoke: tiny op counts, two thread points, one short bench.
  HOH_BENCH_OPS=2000 HOH_BENCH_TRIALS=1 HOH_BENCH_THREADS=1,2 \
    "./$BUILD_DIR/bench/fig4_window" > /dev/null
  echo "-- fig4_window (smoke) ok"
fi

echo "== kv rows (bench/kv_ycsb --workload=E, smoke size)"
# The kv store's correctness gates are ctest cases (tests/kv/); this run
# checks that real kv rows, scan triple included, decode through
# summarize_bench.py (which exits 1 on any row that disagrees with its
# `# columns:` header) into the kv workload table.
KV_OUT="$BUILD_DIR/kv_rows.txt"
HOH_BENCH_OPS=500 HOH_BENCH_TRIALS=1 HOH_BENCH_THREADS=1 \
  "./$BUILD_DIR/bench/kv_ycsb" --workload=E > "$KV_OUT"
if ! grep -q "kv workload" <(python3 tools/summarize_bench.py "$KV_OUT"); then
  echo "FAIL: kv_ycsb rows produced no kv workload table" >&2
  exit 1
fi
echo "-- kv_ycsb (E, smoke size) ok"

echo "== trace build (observability smoke)"
# Separate tree with the hot-path instrumentation compiled in
# (HOHTM_TRACE=ON; see docs/OBSERVABILITY.md). Building just one bench
# target keeps this cheap. The run must produce a Chrome trace JSON, a
# footprint timeline, and non-zero latency percentiles — all three are
# checked by piping the output through tools/trace_report.py.
cmake -B build-trace -DHOHTM_TRACE=ON
cmake --build build-trace --parallel "$(nproc)" --target fig5_allocator
TRACE_OUT=build-trace/trace_smoke.txt
HOH_BENCH_OPS=2000 HOH_BENCH_TRIALS=1 HOH_BENCH_THREADS=1,2 \
HOH_BENCH_FOOTPRINT_MS=5 HOHTM_TRACE_FILE=build-trace/trace.json \
  ./build-trace/bench/fig5_allocator > "$TRACE_OUT"
python3 tools/trace_report.py "$TRACE_OUT" --trace build-trace/trace.json
if grep -q "all zero" <(python3 tools/trace_report.py "$TRACE_OUT"); then
  echo "FAIL: trace build produced zero latency percentiles" >&2
  exit 1
fi
python3 tools/summarize_bench.py "$TRACE_OUT" > /dev/null
echo "-- fig5_allocator (trace smoke) ok"

echo "ALL CHECKS PASSED"
