#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/driver.hpp"
#include "kv/store.hpp"
#include "util/zipfian.hpp"

namespace hohtm::kv {

/// The five YCSB mixes (Cooper et al., SoCC '10), over Zipfian key
/// popularity:
///   A: 50% read / 50% update     (session store)
///   B: 95% read /  5% update     (photo tagging)
///   C: 100% read                 (profile cache)
///   D: 95% read-latest / 5% insert (status updates)
///   E: 95% scan / 5% insert      (threaded conversations)
/// Updates go through put (replace-node), so A/B exercise the precise
/// node-swap reclamation; D grows the store, exercising migration; E's
/// range scans start at Zipfian-popular keys with uniform lengths up to
/// `max_scan_len`, exercising the cursor handover against the resizes
/// its inserts trigger.
enum class Mix : std::uint8_t { kA = 0, kB, kC, kD, kE };

inline const char* mix_name(Mix mix) noexcept {
  switch (mix) {
    case Mix::kA: return "ycsb-a";
    case Mix::kB: return "ycsb-b";
    case Mix::kC: return "ycsb-c";
    case Mix::kD: return "ycsb-d";
    case Mix::kE: return "ycsb-e";
  }
  return "?";
}

/// One KV bench cell. `records` is both the prefill count and the
/// Zipfian domain; keys and values get deterministic variable lengths so
/// the flex-allocation path sees realistic size spread without any RNG
/// on the verification side.
struct KvWorkloadConfig {
  Mix mix = Mix::kC;
  std::size_t records = 2048;
  int threads = 2;
  std::uint64_t ops_per_thread = 20000;
  double theta = 0.99;
  int trials = 1;
  std::uint64_t seed = 42;
  int footprint_ms = 0;  // live-object sampling cadence; 0 = off
  std::size_t max_scan_len = 64;  // Mix E: uniform scan length in [1, max]
};

/// Key for popularity rank r: "user" + variable-length hex of the
/// scrambled rank (16..24 digits — always the full 64-bit value, plus
/// 0..8 leading zeros chosen by the scramble itself), so hot keys
/// scatter over the hash space and key lengths vary deterministically.
/// Emitting all 16 hex digits is what makes the scramble's
/// invertibility carry over to the keys: truncating to a prefix would
/// let distinct ranks collide and silently shrink the prefilled key
/// population (tests/kv/kv_workload_test.cpp pins uniqueness).
inline std::string make_key(std::uint64_t rank) {
  const std::uint64_t scrambled = util::scramble_rank(rank);
  const int digits = 16 + static_cast<int>(scrambled % 9);
  char buf[4 + 24 + 1];
  const int n =
      std::snprintf(buf, sizeof buf, "user%0*llx", digits,
                    static_cast<unsigned long long>(scrambled));
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Deterministic value for (rank, version): length 8..127 bytes of a
/// xoshiro stream seeded by both, so overwrites change the content and
/// a checker can recompute any expected value from the op history.
inline std::string make_value(std::uint64_t rank, std::uint64_t version) {
  util::Xoshiro256 rng(rank * 0x9E3779B97F4A7C15ULL + version);
  const std::size_t len = 8 + static_cast<std::size_t>(rng.next() % 120);
  std::string v(len, '\0');
  for (std::size_t i = 0; i < len; ++i)
    v[i] = static_cast<char>('a' + (rng.next() % 26));
  return v;
}

/// The store's cumulative resize and range-scan counters, in the order
/// of their CSV columns (kStoreColumns). A cell reports each one's
/// growth over its timed phase.
template <class Store>
std::array<std::uint64_t, 5> store_counts(const Store& store) {
  return {store.migrated_buckets(), store.tables_swapped(), store.scans(),
          store.scan_windows(), store.scan_resumes()};
}
inline constexpr std::array<const char*, 5> kStoreColumns{
    "kv_migrations", "kv_resizes", "kv_scans", "kv_scan_windows",
    "kv_scan_resumes"};

/// Appends one trial's KV columns to `cell`: reads that found their key
/// (kv_hits) and did not (kv_misses), then how far the store counters
/// moved since `before` — old-table buckets migrated, tables installed,
/// range-scan ops started, committed scan window transactions, and lost
/// cursors reseeked mid-scan.
template <class Store>
void add_kv_columns(harness::CellResult& cell, std::uint64_t hits,
                    std::uint64_t misses, const Store& store,
                    const std::array<std::uint64_t, 5>& before) {
  cell.add("kv_hits", hits);
  cell.add("kv_misses", misses);
  const std::array<std::uint64_t, 5> after = store_counts(store);
  for (std::size_t i = 0; i < after.size(); ++i)
    cell.add(kStoreColumns[i], after[i] - before[i]);
}

/// KV mirror of harness::run_cell: per trial, build a fresh store via
/// `make_store()` (a callable returning something with put/get/del and
/// the migration accessors), prefill `records` keys, settle migration,
/// then run the mix on `threads` workers under harness::run_timed.
/// Telemetry scoping and the footprint follow run_cell exactly, so the
/// same CSV/plot tooling applies; the KV columns come from
/// add_kv_columns.
template <class StoreFactory>
harness::CellResult run_kv_cell(const KvWorkloadConfig& config,
                                StoreFactory&& make_store) {
  harness::CellResult cell;
  for (int trial = 0; trial < config.trials; ++trial) {
    const long long live_baseline = reclaim::Gauge::live();
    auto store = make_store();
    for (std::size_t r = 0; r < config.records; ++r)
      store->put(make_key(r), make_value(r, 0));
    store->finish_migration();  // settle prefill grows before timing
    const std::array<std::uint64_t, 5> before = store_counts(*store);
    tm::Stats::reset();
    util::Metrics::reset();

    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    const harness::TimedRun run = harness::run_timed(
        config.threads, config.footprint_ms, [&](int t) {
          util::Zipfian zipf(config.records, config.theta,
                             config.seed + 1000u * (trial + 1) + t);
          util::Xoshiro256 rng(config.seed + 0x2000u * (trial + 1) + t);
          std::string value;
          std::uint64_t my_hits = 0;
          std::uint64_t my_misses = 0;
          std::uint64_t inserted = 0;  // Mix D: this thread's new records
          const std::uint64_t insert_base =
              config.records + (static_cast<std::uint64_t>(t + 1) << 32);
          for (std::uint64_t i = 0; i < config.ops_per_thread; ++i) {
            const int dice = static_cast<int>(rng.next_below(100));
            bool do_read = true;
            switch (config.mix) {
              case Mix::kA: do_read = dice < 50; break;
              case Mix::kB: do_read = dice < 95; break;
              case Mix::kC: do_read = true; break;
              case Mix::kD: do_read = dice < 95; break;
              case Mix::kE: do_read = dice < 95; break;
            }
            if (config.mix == Mix::kE) {
              if (do_read) {
                // Scan: Zipfian-popular start key, uniform length. The
                // visitor is a no-op — the cell measures the traversal
                // and its cursor handover, not the consumer.
                const std::size_t len = 1 + static_cast<std::size_t>(
                    rng.next_below(config.max_scan_len));
                if (store->scan_from(make_key(zipf.next()), len,
                                     [](const std::string&,
                                        const std::string&) {}) > 0)
                  ++my_hits;
                else
                  ++my_misses;
              } else {
                store->put(make_key(insert_base + inserted),
                           make_value(insert_base + inserted, 0));
                ++inserted;
              }
            } else if (config.mix == Mix::kD) {
              if (do_read) {
                // Read-latest: prefer this thread's most recent inserts,
                // Zipfian-skewed; fall back to the prefill while young.
                std::uint64_t rank;
                if (inserted == 0) {
                  rank = zipf.next();
                } else {
                  const std::uint64_t back = zipf.next() % inserted;
                  rank = insert_base + (inserted - 1 - back);
                }
                if (store->get(make_key(rank), value))
                  ++my_hits;
                else
                  ++my_misses;
              } else {
                store->put(make_key(insert_base + inserted),
                           make_value(insert_base + inserted, 0));
                ++inserted;
              }
            } else if (do_read) {
              if (store->get(make_key(zipf.next()), value))
                ++my_hits;
              else
                ++my_misses;
            } else {
              const std::uint64_t rank = zipf.next();
              store->put(make_key(rank), make_value(rank, i + 1));
            }
          }
          hits.fetch_add(my_hits, std::memory_order_relaxed);
          misses.fetch_add(my_misses, std::memory_order_relaxed);
        });
    add_kv_columns(cell, hits.load(std::memory_order_relaxed),
                   misses.load(std::memory_order_relaxed), *store, before);
    cell.add_trial(run,
                   config.ops_per_thread *
                       static_cast<std::uint64_t>(config.threads),
                   live_baseline);
  }
  return cell;
}

}  // namespace hohtm::kv
