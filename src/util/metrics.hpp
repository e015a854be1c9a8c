#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/per_thread.hpp"

namespace hohtm::util {

/// MetricsRegistry — the always-on metrics plane (docs/OBSERVABILITY.md).
///
/// Unlike the `HOHTM_TRACE`-gated trace/histogram layer, this plane is
/// compiled into every build: a production binary can always answer
/// "how many revocations, how big is the reclamation backlog, is a
/// thread stalled" without a rebuild. The cost model is therefore the
/// same as `tm::Stats`: per-thread, cache-line-padded counter cells
/// written only by their owner (a relaxed load + release store, no RMW),
/// aggregated lock-free by acquire-summing across the thread registry's
/// high-water mark. Registration (cold path) takes a mutex; the hot path
/// never does.
///
/// Three kinds of entries, all named:
///  - counters: monotonic per-thread cells; `total()` sums them. A
///    retired thread's cells stay in its registry slot, and a new thread
///    recycling the slot keeps adding, so totals never lose counts.
///  - gauges: pull functions sampled at snapshot time (e.g. the live
///    Gauge, per-scheme reclamation backlogs).
///  - sections: subsystem-owned JSON renderers (abort attribution, the
///    kv contention heatmap, the stall watchdog) spliced into the
///    snapshot document.
///
/// Export: `write_json()` / `snapshot_json()` produce one machine-
/// readable document (rendered by tools/metrics_report.py), and
/// `enable_env_dump()` arms an atexit hook that writes it to
/// `$HOHTM_METRICS_FILE` when that variable is set.
class MetricsRegistry {
 public:
  /// Fixed-capacity name tables: registration past the cap returns -1
  /// (and `add(-1)` is a no-op) rather than reallocating shared state
  /// under concurrent readers.
  static constexpr int kMaxMetrics = 64;
  static constexpr int kMaxGauges = 32;
  static constexpr int kMaxSections = 16;

  /// Registers (or finds) a named counter; idempotent by name. Returns
  /// the counter id, or -1 when the table is full. Cold path (mutex).
  static int counter(const char* name);

  /// Owner-thread bump: one relaxed load + release store into this
  /// thread's padded cell. Safe from any thread, any time; ids < 0 are
  /// ignored so callers can cache a failed registration harmlessly.
  static void add(int id, std::uint64_t n = 1) noexcept;

  /// Lock-free aggregate of one counter across all threads that ever
  /// ran (acquire loads, like `tm::Stats::total()`).
  static std::uint64_t total(int id) noexcept;

  using GaugeFn = std::int64_t (*)();
  /// Registers a pull-gauge sampled at snapshot time. Idempotent by
  /// name (the last registration wins). False when the table is full.
  static bool register_gauge(const char* name, GaugeFn fn);

  using SectionFn = void (*)(std::FILE*);
  /// Registers a JSON section renderer: `fn` must write exactly one
  /// JSON value (object or array). Idempotent by name.
  static bool register_section(const char* name, SectionFn fn);

  /// Writes the full snapshot document: {"counters":{...},
  /// "gauges":{...}, "sections":{...}}.
  static void write_json(std::FILE* out);

  /// `write_json` into a string (open_memstream).
  static std::string snapshot_json();

  /// Arms the atexit dump to `$HOHTM_METRICS_FILE` (idempotent). Called
  /// from the harness header emitters and kv::Service so every bench
  /// and serving binary honours the variable without per-main wiring.
  static void enable_env_dump();

  /// Test-only, quiescent-only: zero every per-thread counter cell.
  /// Registered names, gauges, and sections survive (process-global).
  static void reset_counters_for_testing() noexcept;

 private:
  struct Slots {
    std::atomic<std::uint64_t> v[kMaxMetrics];
  };
  // One padded cell block per thread-registry slot, written only by the
  // owning thread — the tm::Stats single-writer discipline.
  static constinit inline PerThread<Slots> slots_;
};

}  // namespace hohtm::util
