#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "util/histogram.hpp"
#include "util/per_thread.hpp"

namespace hohtm::util {

/// Compile-time master switch for the hot-path instrumentation hooks.
/// Set by the HOHTM_TRACE CMake option. When false, every hook below is
/// an empty inline function (the `if constexpr` discards its body), so
/// instrumented call sites compile to exactly the pre-instrumentation
/// code: no clock reads, no atomic ops, no branches. The *machinery*
/// (ring buffers, histograms, drain) is always compiled, so it stays
/// unit-testable in every build; only the hooks are gated.
#ifdef HOHTM_TRACE_ENABLED
inline constexpr bool kTraceBuild = true;
#else
inline constexpr bool kTraceBuild = false;
#endif

/// Event taxonomy. One byte per event; the names are stable identifiers
/// used verbatim in the Chrome/Perfetto trace JSON and tools/
/// trace_report.py (see docs/OBSERVABILITY.md for the payload of each).
enum class Ev : std::uint8_t {
  kTxBegin = 0,    // arg: 0 speculative, 1 serial-irrevocable
  kTxCommit,       // arg: commit latency in ns (0 outside trace builds)
  kTxAbort,        // arg: tm::AbortCause index
  kTxSerial,       // retry budget exhausted; escalating to serial mode
  kRrReserve,      // arg: reserved Ref
  kRrGet,          // arg: returned Ref (0 = nil)
  kRrRevoke,       // arg: revoked Ref
  kQuiesceEnter,   // a committer starts waiting for in-flight readers
  kQuiesceExit,    // arg: stall time in ns
  kAlloc,          // arg: payload bytes
  kFree,           // arg: freed pointer
  kRetire,         // arg: retired pointer (hazard/epoch deferred free)
  kScan,           // arg: nodes freed by this hazard scan
  kEpochAdvance,   // arg: the new global epoch
  kKvOpStart,      // arg: kv::OpCode index (get/put/del/scan)
  kKvOpDone,       // arg: kv::OpCode index; the op's last tx committed
  kKvMigrate,      // arg: old-table bucket index whose migration finished
  kKvTableSwap,    // arg: log2 bucket count of the freshly installed table
  kKvTableFree,    // arg: bucket count of the precisely freed old table
  kFusedWindow,    // arg: window boundaries elided by the committed tx
  kFusionFallback, // a fused attempt aborted; op retreats to small windows
  kRrLossAttr,     // a reservation loss was attributed: arg packs
                   // aborter slot | site << 8 | known << 16
  kKvScanWindow,   // arg: entries emitted by the committed scan window
  kKvScanResume,   // a scan lost its parked cursor and reseeked from the
                   // remembered (hash, key) position
};
inline constexpr std::size_t kEvCount = 24;
inline constexpr const char* kEvNames[kEvCount] = {
    "tx_begin",      "tx_commit", "tx_abort", "tx_serial",    "rr_reserve",
    "rr_get",        "rr_revoke", "quiesce_enter", "quiesce_exit", "alloc",
    "free",          "retire",    "scan",     "epoch_advance",
    "kv_op_start",   "kv_op_done", "kv_migrate", "kv_table_swap",
    "kv_table_free", "fused_window", "fusion_fallback", "rr_loss_attr",
    "kv_scan_window", "kv_scan_resume"};

/// One compact trace record. 24 bytes; a thread's ring is a plain array
/// of these, written only by its owner.
struct TraceRecord {
  std::uint64_t ts;   // timestamp from the (injectable) trace clock, ns
  std::uint64_t arg;  // event-specific payload (see Ev)
  std::uint32_t tid;  // dense ThreadRegistry slot
  Ev kind;
};

/// Per-thread, cache-padded, fixed-capacity event rings.
///
/// Each ring keeps the *last* kCapacity events of its thread (overwrite-
/// oldest), so tracing an arbitrarily long run costs fixed memory and the
/// drain shows the end of the story — the part a post-mortem wants.
///
/// Writers never synchronize: a slot's ring is touched only by the thread
/// owning that slot. Draining, resetting, and clock swaps are therefore
/// only safe at quiescent points (no instrumented thread running), the
/// same contract tm::Stats::reset() already imposes. Benches drain at
/// exit; tests drain after joining their threads.
class Trace {
 public:
  using ClockFn = std::uint64_t (*)();
  static constexpr std::size_t kCapacity = 1024;  // per thread, power of two

  /// Current trace timestamp. Defaults to steady_clock nanoseconds;
  /// tests inject a deterministic source with set_clock.
  static std::uint64_t now() noexcept { return clock_(); }

  /// Replace the timestamp source (nullptr restores steady_clock).
  /// Quiescent-only, like drain/reset.
  static void set_clock(ClockFn fn) noexcept;

  /// Runtime master switch (cheap relaxed load in record). Lets a bench
  /// scope tracing to its timed phase without rebuilding.
  static void set_active(bool on) noexcept {
    active_.store(on, std::memory_order_relaxed);
  }
  static bool active() noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  static void record(Ev kind, std::uint64_t arg = 0) noexcept {
    if (!active()) return;
    const std::size_t slot = ThreadRegistry::slot();
    Ring& ring = rings_.live()[slot].value;
    TraceRecord& r = ring.events[ring.next & (kCapacity - 1)];
    r.ts = now();
    r.arg = arg;
    r.tid = static_cast<std::uint32_t>(slot);
    r.kind = kind;
    ring.next += 1;
  }

  /// Number of retained events across all rings.
  static std::size_t size() noexcept;

  /// Events overwritten because rings wrapped.
  static std::uint64_t dropped() noexcept;

  /// Retained events, globally sorted by timestamp. Quiescent-only.
  static std::vector<TraceRecord> snapshot();

  /// Drain as a Chrome/Perfetto trace-event JSON array (instant events,
  /// microsecond timestamps). Quiescent-only; does not clear the rings.
  static void drain_json(std::FILE* out);

  /// Clear every ring. Quiescent-only.
  static void reset() noexcept;

 private:
  struct Ring {
    TraceRecord events[kCapacity];
    std::uint64_t next;  // total records ever written by this slot
  };

  static std::uint64_t steady_now() noexcept;

  static constinit inline PerThread<Ring> rings_;
  static inline std::atomic<ClockFn> clock_fn_{nullptr};
  static inline std::atomic<bool> active_{true};

  static std::uint64_t clock_() noexcept {
    const ClockFn fn = clock_fn_.load(std::memory_order_relaxed);
    return fn != nullptr ? fn() : steady_now();
  }
};

/// The three latency distributions the paper-style evaluation needs:
/// how long commits take, how long an aborted attempt waits before
/// retrying, and how long committers stall in the quiescence fence.
/// All in nanoseconds of the trace clock.
struct LatencyHistograms {
  Histogram commit_ns;
  Histogram retry_ns;
  Histogram quiesce_ns;

  void merge(const LatencyHistograms& other) noexcept {
    commit_ns.merge(other.commit_ns);
    retry_ns.merge(other.retry_ns);
    quiesce_ns.merge(other.quiesce_ns);
  }
  void reset() noexcept {
    commit_ns.reset();
    retry_ns.reset();
    quiesce_ns.reset();
  }
};

/// Per-thread latency histograms, aggregated exactly like tm::Stats:
/// each slot written only by its owner, total() summed at quiescent
/// points, reset() only while no instrumented thread runs.
class Metrics {
 public:
  static LatencyHistograms& mine() noexcept { return slots_.mine(); }

  static LatencyHistograms total() noexcept {
    LatencyHistograms sum;
    for (const auto& s : slots_.live()) sum.merge(s.value);
    return sum;
  }

  static void reset() noexcept {
    for (auto& s : slots_.live()) s.value.reset();
  }

 private:
  static constinit inline PerThread<LatencyHistograms> slots_;
};

// ---------------------------------------------------------------------------
// Hot-path hooks. Call these from instrumented code; they vanish in
// non-trace builds (empty inline functions — see kTraceBuild above).
// ---------------------------------------------------------------------------

inline void trace_event(Ev kind, std::uint64_t arg = 0) noexcept {
  if constexpr (kTraceBuild) Trace::record(kind, arg);
}

/// Start timestamp for a latency measurement; 0 (and no clock read) in
/// non-trace builds.
inline std::uint64_t trace_clock() noexcept {
  if constexpr (kTraceBuild) return Trace::now();
  return 0;
}

/// A transaction attempt that began at `t0` just committed.
inline void trace_tx_commit(std::uint64_t t0) noexcept {
  if constexpr (kTraceBuild) {
    const std::uint64_t latency = Trace::now() - t0;
    Metrics::mine().commit_ns.record(latency);
    Trace::record(Ev::kTxCommit, latency);
  }
}

/// An aborted attempt finished its backoff pause that began at `t0`.
inline void trace_tx_retry_pause(std::uint64_t t0) noexcept {
  if constexpr (kTraceBuild) Metrics::mine().retry_ns.record(Trace::now() - t0);
}

/// A committer with pending frees starts waiting on the quiescence
/// fence; returns the stall start time (0 in non-trace builds).
inline std::uint64_t trace_quiesce_enter() noexcept {
  if constexpr (kTraceBuild) {
    Trace::record(Ev::kQuiesceEnter);
    return Trace::now();
  }
  return 0;
}

inline void trace_quiesce_exit(std::uint64_t t0) noexcept {
  if constexpr (kTraceBuild) {
    const std::uint64_t stall = Trace::now() - t0;
    Metrics::mine().quiesce_ns.record(stall);
    Trace::record(Ev::kQuiesceExit, stall);
  }
}

}  // namespace hohtm::util
