// Range-scan coverage for the sharded KV store (docs/KV.md, "Range
// scans"): canonical (hash, key) order against a sorted mirror, edge
// cases (empty store, limit 0/1, absent start key), scans that span
// shard boundaries, scans against a store frozen mid-resize, a scan
// whose visitor forces grows mid-scan, and the scan telemetry counters,
// down to a YCSB-E cell's CSV columns. Everything here is
// single-threaded and deterministic — the concurrent interleavings live
// in tests/sched/sched_scan_test.cpp.
#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/rr.hpp"
#include "kv/workload.hpp"
#include "reclaim/gauge.hpp"

namespace hohtm {
namespace {

using ScanStore = kv::Store<tm::Norec, rr::RrV<tm::Norec>>;
using Entry = std::pair<std::string, std::string>;

/// The store's canonical total order over keys: hash first, then key
/// bytes — the order chains (and therefore scans) are sorted by.
bool canon_less(const std::string& a, const std::string& b) {
  return kv::detail::precedes(kv::detail::hash_bytes(a), a,
                              kv::detail::hash_bytes(b), b);
}

bool entry_canon_less(const Entry& a, const Entry& b) {
  return canon_less(a.first, b.first);
}

/// Mirror of the store's contents as scan_from would emit it: all
/// entries in canonical order, starting at `start`'s position
/// (inclusive), truncated to `limit`.
std::vector<Entry> expected_range(const std::map<std::string, std::string>& ref,
                                  const std::string& start,
                                  std::size_t limit) {
  std::vector<Entry> sorted(ref.begin(), ref.end());
  std::sort(sorted.begin(), sorted.end(), entry_canon_less);
  auto it = std::find_if(sorted.begin(), sorted.end(), [&](const Entry& e) {
    return !canon_less(e.first, start);  // first key not before start
  });
  std::vector<Entry> out;
  for (; it != sorted.end() && out.size() < limit; ++it) out.push_back(*it);
  return out;
}

template <class Store>
std::vector<Entry> collect_from(Store& store, const std::string& start,
                                std::size_t limit) {
  std::vector<Entry> got;
  store.scan_from(start, limit, [&](const std::string& k,
                                    const std::string& v) {
    got.emplace_back(k, v);
  });
  return got;
}

TEST(KvScan, EmptyStoreAndLimitZero) {
  ScanStore store;
  std::size_t visits = 0;
  auto count_visit = [&](const std::string&, const std::string&) { ++visits; };
  EXPECT_EQ(store.scan(16, count_visit), 0u);
  EXPECT_EQ(store.scan_from("anything", 16, count_visit), 0u);
  EXPECT_EQ(visits, 0u);

  // limit 0 is a no-op even on a populated store — no windows run, no
  // entries surface, but the op still counts as a scan.
  store.put("a", "1");
  const std::uint64_t scans_before = store.scans();
  const std::uint64_t windows_before = store.scan_windows();
  EXPECT_EQ(store.scan(0, count_visit), 0u);
  EXPECT_EQ(store.scan_from("a", 0, count_visit), 0u);
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(store.scans(), scans_before + 2);
  EXPECT_EQ(store.scan_windows(), windows_before);
}

TEST(KvScan, LimitOneReturnsCanonicalFirst) {
  ScanStore store;
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "one" + std::to_string(i);
    store.put(key, "v" + std::to_string(i));
    ref[key] = "v" + std::to_string(i);
  }
  // Note: scan() starts at the true canonical minimum (hash 0), which
  // is NOT the same as scan_from("") — the empty string hashes to an
  // interior position like any other key.
  std::vector<Entry> want(ref.begin(), ref.end());
  std::sort(want.begin(), want.end(), entry_canon_less);
  std::vector<Entry> got;
  EXPECT_EQ(store.scan(1, [&](const std::string& k, const std::string& v) {
              got.emplace_back(k, v);
            }),
            1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], want[0]);
  // ...and scanning from that key inclusive returns it again.
  EXPECT_EQ(collect_from(store, got[0].first, 1), got);
}

TEST(KvScan, CanonicalOrderMatchesSortedMirror) {
  ScanStore store;
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "mirror" + std::to_string(i);
    const std::string val = "v" + std::to_string(i);
    store.put(key, val);
    ref[key] = val;
  }
  store.finish_migration();

  std::vector<Entry> sorted(ref.begin(), ref.end());
  std::sort(sorted.begin(), sorted.end(), entry_canon_less);
  std::vector<Entry> got;
  EXPECT_EQ(store.scan(ref.size() + 10,
                       [&](const std::string& k, const std::string& v) {
                         got.emplace_back(k, v);
                       }),
            ref.size());
  EXPECT_EQ(got, sorted);  // exact sequence: order, no dups, no phantoms

  // Ranged scans from several interior positions match the mirror's
  // suffix slices exactly (inclusive start, bounded length).
  for (std::size_t at : {std::size_t{0}, std::size_t{1}, std::size_t{137},
                         sorted.size() - 1}) {
    const std::string& start = sorted[at].first;
    for (std::size_t limit : {std::size_t{1}, std::size_t{7},
                              std::size_t{1000}}) {
      EXPECT_EQ(collect_from(store, start, limit),
                expected_range(ref, start, limit))
          << "start #" << at << " limit " << limit;
    }
  }
}

TEST(KvScan, AbsentStartKeyStartsAtSuccessor) {
  ScanStore store;
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "gap" + std::to_string(2 * i);  // evens only
    store.put(key, "v");
    ref[key] = "v";
  }
  // Absent keys (odd suffixes) resolve to their canonical successor —
  // same slice the mirror produces for the same start position.
  for (int i = 1; i < 100; i += 17) {
    const std::string start = "gap" + std::to_string(2 * i + 1);
    EXPECT_EQ(collect_from(store, start, 5), expected_range(ref, start, 5))
        << "start " << start;
  }
  // A start past the last canonical key scans nothing; the mirror
  // agrees by construction.
  std::vector<Entry> sorted(ref.begin(), ref.end());
  std::sort(sorted.begin(), sorted.end(), entry_canon_less);
  const std::string last = sorted.back().first;
  EXPECT_EQ(collect_from(store, last, 10).size(),
            expected_range(ref, last, 10).size());
}

TEST(KvScan, SpansShardBoundaries) {
  ScanStore::Options opt;
  opt.log2_shards = 3;  // 8 shards, so most scans cross several
  opt.window = 4;
  ScanStore store(opt);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "span" + std::to_string(i);
    store.put(key, "v" + std::to_string(i));
    ref[key] = "v" + std::to_string(i);
  }
  store.finish_migration();
  std::vector<Entry> sorted(ref.begin(), ref.end());
  std::sort(sorted.begin(), sorted.end(), entry_canon_less);

  // The full scan crosses every shard in ascending hash order: the
  // canonical order is shard-major (top hash bits pick the shard), so
  // the mirror comparison also proves the shard stitching.
  std::vector<Entry> got;
  EXPECT_EQ(store.scan(ref.size(),
                       [&](const std::string& k, const std::string& v) {
                         got.emplace_back(k, v);
                       }),
            ref.size());
  EXPECT_EQ(got, sorted);

  // A bounded scan starting late in one shard spills into the next
  // shard(s) seamlessly.
  const std::string start = sorted[sorted.size() / 2].first;
  EXPECT_EQ(collect_from(store, start, 64), expected_range(ref, start, 64));
}

TEST(KvScan, ScansStoreFrozenMidResize) {
  ScanStore::Options opt;
  opt.log2_shards = 0;
  opt.log2_buckets = 0;
  opt.window = 4;
  opt.grow_chain = 1;       // first chain collision trips a grow
  opt.auto_migrate = false;  // ...and nothing settles it for us
  ScanStore store(opt);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 32; ++i) {
    const std::string key = "mid" + std::to_string(i);
    store.put(key, "v" + std::to_string(i));
    ref[key] = "v" + std::to_string(i);
  }
  ASSERT_TRUE(store.migrating()) << "setup never left a resize pending";

  // The scan itself migrates the buckets it needs (scan windows reach
  // unmigrated old buckets and drive migrate_window before walking), so
  // a store frozen mid-resize still yields the exact canonical dump.
  std::vector<Entry> sorted(ref.begin(), ref.end());
  std::sort(sorted.begin(), sorted.end(), entry_canon_less);
  std::vector<Entry> got;
  EXPECT_EQ(store.scan(ref.size() + 10,
                       [&](const std::string& k, const std::string& v) {
                         got.emplace_back(k, v);
                       }),
            ref.size());
  EXPECT_EQ(got, sorted);

  store.finish_migration();
  EXPECT_FALSE(store.migrating());
  EXPECT_TRUE(store.is_consistent());
  EXPECT_EQ(store.tables_retired(), store.tables_swapped());
}

TEST(KvScan, CountersTrackWindowsAndScans) {
  ScanStore::Options opt;
  opt.window = 2;  // tiny windows force multiple per scan
  ScanStore store(opt);
  for (int i = 0; i < 40; ++i)
    store.put("ctr" + std::to_string(i), "v");
  store.finish_migration();

  const std::uint64_t scans0 = store.scans();
  const std::uint64_t windows0 = store.scan_windows();
  EXPECT_EQ(store.scan(40, [](const std::string&, const std::string&) {}),
            40u);
  EXPECT_EQ(store.scans(), scans0 + 1);
  // 40 entries at <= 2 walked nodes per window transaction: at least 20
  // committed windows (empty-bucket hops and shard finishes add more).
  EXPECT_GE(store.scan_windows(), windows0 + 20);
  // Single-threaded: nothing revoked the parked cursor.
  EXPECT_EQ(store.scan_resumes(), 0u);
}

// RR-Null carries no real reservation, so every window boundary comes
// back nil — the scan must reseek from its remembered position each
// window and still produce the exact canonical sequence (and the nil
// steady state must not count as a "resume" event). The store keeps the
// default window (16): keyed ops under RR-Null restart from the chain
// head every window, so they only terminate while chains stay shorter
// than the window (grow_chain = 8 guarantees that); the *scan* has no
// such constraint — reseek skips are budget-free — which is exactly
// what this test exercises.
TEST(KvScan, NullReservationReseeksEveryWindow) {
  using NullStore = kv::Store<tm::Norec, rr::RrNull<tm::Norec>>;
  NullStore store;
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 80; ++i) {
    const std::string key = "null" + std::to_string(i);
    store.put(key, "v" + std::to_string(i));
    ref[key] = "v" + std::to_string(i);
  }
  store.finish_migration();
  std::vector<Entry> sorted(ref.begin(), ref.end());
  std::sort(sorted.begin(), sorted.end(), entry_canon_less);
  std::vector<Entry> got;
  EXPECT_EQ(store.scan(ref.size(),
                       [&](const std::string& k, const std::string& v) {
                         got.emplace_back(k, v);
                       }),
            ref.size());
  EXPECT_EQ(got, sorted);
  // 80 keys over 4 shards: every shard commits at least its closing
  // window and the largest shard (>= 20 keys) needs a handover — so at
  // least one boundary came back nil and was reseeked.
  EXPECT_GE(store.scan_windows(), 5u);
  EXPECT_EQ(store.scan_resumes(), 0u);
}

// The visitor may re-enter the store (docs/KV.md, "Range scans"): here
// it runs a get, an overwriting put and a nested multi-window scan_from
// on the same store and thread, while the outer scan still has entries
// of its current window waiting for delivery. Both scans use one visitor
// type, so they run the same scan_impl instantiation and would share its
// per-thread entry buffer if the nested scan did not get its own. Both
// must match the mirror exactly, and the strings the outer visitor was
// handed must survive the nested scan.
TEST(KvScan, VisitorReentersStoreMidWindow) {
  using Visitor = std::function<void(const std::string&, const std::string&)>;
  ScanStore::Options opt;
  opt.window = 4;  // several entries per window; nested scans span windows
  ScanStore store(opt);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 120; ++i) {
    const std::string key = "re" + std::to_string(i);
    store.put(key, "v" + std::to_string(i));
    ref[key] = "v" + std::to_string(i);
  }
  store.finish_migration();
  std::vector<Entry> sorted(ref.begin(), ref.end());
  std::sort(sorted.begin(), sorted.end(), entry_canon_less);

  constexpr std::size_t kNested = 10;
  std::vector<Entry> nested;
  Visitor collect = [&](const std::string& k, const std::string& v) {
    nested.emplace_back(k, v);
  };
  std::vector<Entry> got;
  std::size_t nested_scans = 0;
  Visitor visit = [&](const std::string& k, const std::string& v) {
    got.emplace_back(k, v);
    if (got.size() % 3 != 0) return;
    const Entry entry = got.back();
    std::string value;
    EXPECT_TRUE(store.get(entry.first, value));
    EXPECT_EQ(value, ref.at(entry.first));
    store.put(entry.first, value);  // same value: the mirror still holds
    nested.clear();
    const std::size_t visits = store.scan_from(entry.first, kNested, collect);
    EXPECT_EQ(visits, nested.size());
    EXPECT_EQ(nested, expected_range(ref, entry.first, kNested))
        << "nested scan from " << entry.first;
    ++nested_scans;
    EXPECT_EQ(Entry(k, v), entry)
        << "the nested scan overwrote the outer scan's entry";
  };
  EXPECT_EQ(store.scan(ref.size(), visit), ref.size());
  EXPECT_EQ(got, sorted);
  EXPECT_EQ(nested_scans, ref.size() / 3);
}

/// Puts the first `n` workload keys into `store`, settles migration, and
/// returns the keys in canonical order.
std::vector<std::string> prefill_canonical(ScanStore& store, std::size_t n) {
  std::vector<std::string> keys;
  for (std::size_t r = 0; r < n; ++r) {
    keys.push_back(kv::make_key(r));
    store.put(keys.back(), kv::make_value(r, 0));
  }
  store.finish_migration();
  std::sort(keys.begin(), keys.end(), canon_less);
  return keys;
}

TEST(KvScan, ScanFromMidOrderKeyReturnsCanonicalSlice) {
  ScanStore::Options opt;
  opt.window = 4;
  ScanStore store(opt);
  const std::vector<std::string> keys = prefill_canonical(store, 256);
  const std::size_t at = keys.size() / 2;
  std::vector<std::string> slice;
  EXPECT_EQ(store.scan_from(keys[at], 10,
                            [&](const std::string& k, const std::string&) {
                              slice.push_back(k);
                            }),
            10u);
  EXPECT_EQ(slice, std::vector<std::string>(keys.begin() + at,
                                            keys.begin() + at + 10));
}

// A whole-store scan whose visitor re-enters the store after 64 entries
// with a 512-key insert burst, forcing table grows underneath the parked
// cursor. The result stays strictly ascending (so duplicate-free), holds
// every prefill key and nothing but prefill and burst keys, the grows
// and cursor reseeks really ran, and teardown frees every node.
TEST(KvScan, FullScanSurvivesGrowsForcedMidScan) {
  const long long baseline = reclaim::Gauge::live();
  {
    ScanStore::Options opt;
    opt.window = 4;
    ScanStore store(opt);
    const std::vector<std::string> prefill = prefill_canonical(store, 256);
    const std::uint64_t swaps_before = store.tables_swapped();
    const std::uint64_t resumes_before = store.scan_resumes();
    std::vector<std::string> seen;
    std::set<std::string> burst;
    store.scan(std::numeric_limits<std::size_t>::max(),
               [&](const std::string& k, const std::string&) {
                 seen.push_back(k);
                 if (seen.size() != 64) return;
                 for (std::uint64_t rank = 100000; rank < 100512; ++rank) {
                   burst.insert(kv::make_key(rank));
                   store.put(kv::make_key(rank), kv::make_value(rank, 0));
                 }
               });
    const auto unordered = std::adjacent_find(
        seen.begin(), seen.end(),
        [](const std::string& a, const std::string& b) {
          return !canon_less(a, b);
        });
    EXPECT_TRUE(unordered == seen.end())
        << "out of canonical order or duplicated at index "
        << unordered - seen.begin();
    const std::set<std::string> seen_set(seen.begin(), seen.end());
    const auto missing = std::count_if(
        prefill.begin(), prefill.end(),
        [&](const std::string& k) { return seen_set.count(k) == 0; });
    EXPECT_EQ(missing, 0) << "prefill keys missing from the scan";
    const auto phantoms =
        std::count_if(seen.begin(), seen.end(), [&](const std::string& k) {
          return burst.count(k) == 0 &&
                 !std::binary_search(prefill.begin(), prefill.end(), k,
                                     canon_less);
        });
    EXPECT_EQ(phantoms, 0) << "keys never inserted surfaced in the scan";
    EXPECT_GT(store.tables_swapped(), swaps_before)
        << "the insert burst forced no resize";
    EXPECT_GT(store.scan_resumes(), resumes_before)
        << "no cursor resume recorded under the forced resize";
  }
  EXPECT_EQ(reclaim::Gauge::live(), baseline);
}

// A YCSB-E cell through run_kv_cell: every scan op is counted once in
// kv_scans (a scan op either hits or misses), and each commits at least
// one window.
TEST(KvScan, YcsbECellScanColumnsAreLive) {
  kv::KvWorkloadConfig config;
  config.mix = kv::Mix::kE;
  config.records = 512;
  config.threads = 1;
  config.ops_per_thread = 500;
  config.trials = 1;
  config.max_scan_len = 32;
  const harness::CellResult cell = kv::run_kv_cell(config, [] {
    ScanStore::Options opt;
    opt.window = 8;
    return std::make_unique<ScanStore>(opt);
  });
  const std::uint64_t scans = cell.column("kv_scans");
  EXPECT_GT(scans, 0u);
  EXPECT_EQ(scans, cell.column("kv_hits") + cell.column("kv_misses"));
  EXPECT_GE(cell.column("kv_scan_windows"), scans);
}

// Scans allocate nothing: a scanned-then-emptied store leaves the Gauge
// exactly where it started.
TEST(KvScan, ScanLeavesNoFootprint) {
  const long long baseline = reclaim::Gauge::live();
  {
    ScanStore store;
    std::vector<std::string> keys;
    for (int i = 0; i < 50; ++i) {
      keys.push_back("leak" + std::to_string(i));
      store.put(keys.back(), "v");
    }
    store.finish_migration();
    store.scan(100, [](const std::string&, const std::string&) {});
    store.scan_from(keys[10], 20,
                    [](const std::string&, const std::string&) {});
    for (const std::string& k : keys) store.del(k);
    EXPECT_EQ(store.size(), 0u);
  }
  EXPECT_EQ(reclaim::Gauge::live(), baseline);
}

}  // namespace
}  // namespace hohtm
