#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/workload.hpp"
#include "reclaim/gauge.hpp"
#include "tm/config.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace hohtm::harness {

/// One point of the reclamation-footprint timeline: live objects
/// `t_ms` milliseconds into the timed phase.
struct FootprintSample {
  double t_ms = 0.0;
  long long live = 0;
};

/// One timed phase as measured by run_timed: its duration, and the raw
/// reclaim::Gauge::live() samples taken while it ran (empty when
/// footprint sampling is off).
struct TimedRun {
  double seconds = 0.0;
  std::vector<FootprintSample> footprint;
};

/// The one timed-phase loop behind every bench cell. Spawns `threads`
/// workers, lines them up on a spin barrier, and runs `body(t)` on
/// worker t. Each worker stamps its own start after leaving the barrier
/// and its own end after its body returns; the duration is
/// max(end) − min(start), so it covers every worker's work however late
/// any thread — the caller included — gets scheduled.
///
/// With `footprint_ms > 0` a sampler thread joins the barrier and reads
/// the live-object gauge every `footprint_ms` milliseconds until the
/// workers are done (always at least once, at the start). It waits on a
/// condition variable with an absolute deadline rather than sleeping:
/// shutdown interrupts the wait at once, and between samples the thread
/// is blocked instead of burning a CPU the workers need.
TimedRun run_timed(int threads, int footprint_ms,
                   const std::function<void(int)>& body);

/// Aggregate over trials; the paper reports the mean of 5 trials and a
/// variance below 3% — cv_percent lets the harness print the same check.
/// `counters` carries the TM/RR/HOH telemetry (commits, aborts by cause,
/// revocations, reservation losses) summed over all trials' timed phases
/// — the per-cause accounting that makes contention attributable per
/// bench cell rather than guessed from throughput dips.
///
/// `latency` merges the per-thread latency histograms (commit,
/// abort-to-retry, quiescence stall; util::Metrics) over the same scope.
/// Populated only in HOHTM_TRACE builds — all-zero otherwise, and the
/// CSV percentile columns print 0.
///
/// `footprint` is the live-object timeline of the *last* trial, net of
/// that trial's baseline (empty when footprint sampling is off).
/// `live_peak` is the maximum live-object count (net of each trial's
/// baseline) observed across all trials — from the sampler when it runs,
/// and always from the end-of-timed-phase snapshot.
///
/// `columns` are the bench-specific integer columns printed after the
/// standard block, in order (kv_ycsb's kv_hits, ..., kv_scan_resumes);
/// emit_row names them in the `# columns:` header.
struct CellResult {
  util::Summary mops;
  std::uint64_t ops = 0;  // operations completed over all timed phases
  tm::StatCounters counters;
  util::LatencyHistograms latency;
  std::vector<FootprintSample> footprint;
  long long live_peak = 0;
  std::vector<std::pair<std::string, std::uint64_t>> columns;

  /// Adds `value` to the named column, appending the column on first use.
  void add(const std::string& name, std::uint64_t value);
  /// The named column's value; 0 when the cell has no such column.
  std::uint64_t column(const std::string& name) const;

  /// Folds one trial in: `ops` operations completed during `run`, the
  /// tm::Stats / util::Metrics telemetry gathered since the caller reset
  /// them before the phase, and the live-object footprint net of
  /// `live_baseline`. Call once every thread of the phase has stopped.
  void add_trial(const TimedRun& run, std::uint64_t ops,
                 long long live_baseline);

 private:
  std::vector<double> trial_mops_;
};

/// Run `config.trials` trials of the standard mixed workload against a
/// freshly built set per trial.
///
/// SetFactory: () -> std::unique_ptr<Set>, with Set providing
/// insert/remove/contains(long). The set is pre-filled to 50% of the key
/// range before timing starts (as in the paper), and timed threads run
/// ops_per_thread operations each under run_timed.
template <class SetFactory>
CellResult run_cell(const WorkloadConfig& config, SetFactory&& make_set) {
  CellResult cell;
  for (int trial = 0; trial < config.trials; ++trial) {
    const long long live_baseline = reclaim::Gauge::live();
    auto set = make_set();
    for (long key : prefill_keys(config)) set->insert(key);
    // Scope the telemetry to the timed phase: prefill commits (and the
    // revocations of any prior cell in this process) must not pollute
    // this cell's per-cause columns. No worker threads are alive here,
    // so the reset does not race with counter owners.
    tm::Stats::reset();
    util::Metrics::reset();
    const TimedRun run =
        run_timed(config.threads, config.footprint_ms, [&](int t) {
          util::Xoshiro256 rng(config.seed + 0x1000u * (trial + 1) + t);
          const long range = config.key_range();
          for (std::uint64_t i = 0; i < config.ops_per_thread; ++i) {
            const long key = static_cast<long>(rng.next_below(range));
            const int dice = static_cast<int>(rng.next_below(100));
            if (dice < config.lookup_pct) {
              set->contains(key);
            } else if ((dice - config.lookup_pct) % 2 == 0) {
              set->insert(key);
            } else {
              set->remove(key);
            }
          }
        });
    cell.add_trial(run,
                   config.ops_per_thread *
                       static_cast<std::uint64_t>(config.threads),
                   live_baseline);
  }
  return cell;
}

}  // namespace hohtm::harness
