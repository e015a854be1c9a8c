// KV workload generator and cells.
//
// make_key documents that the splitmix64 scramble is invertible, hence
// collision-free — but that only holds if the key embeds the *entire*
// scrambled rank. A truncated hex emission (the bug this pins) keeps
// only the top 4*digits bits, so distinct ranks can silently collide
// and shrink the prefilled key population under the workload's feet.
//
// The cell tests run whole single-thread YCSB-C cells through
// run_kv_cell: reads hit, teardown frees every node (precise reclamation
// end to end), and window fusion's commit and boundary counts are pinned
// exactly.
#include "kv/workload.hpp"

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/rr.hpp"
#include "reclaim/gauge.hpp"
#include "util/thread_registry.hpp"
#include "util/zipfian.hpp"

namespace hohtm::kv {
namespace {

TEST(KvWorkloadKey, ShapeAndDeterminism) {
  const std::string k = make_key(0);
  EXPECT_EQ(k.substr(0, 4), "user");
  // 16 hex digits always present (full 64-bit scramble), up to 8 more
  // of deterministic leading-zero padding for length variety.
  EXPECT_GE(k.size(), 4u + 16u);
  EXPECT_LE(k.size(), 4u + 24u);
  EXPECT_EQ(make_key(12345), make_key(12345));
}

TEST(KvWorkloadKey, EmbedsTheFullScrambledRank) {
  // Invertibility of the scramble transfers to the key only because the
  // key carries all 64 bits: parse the hex tail back and compare.
  for (std::uint64_t rank : {0ull, 1ull, 12345ull, 0xffffffffull,
                             (2048ull + (1ull << 32))}) {
    const std::string k = make_key(rank);
    const std::uint64_t parsed = std::stoull(k.substr(4), nullptr, 16);
    EXPECT_EQ(parsed, util::scramble_rank(rank)) << k;
  }
}

TEST(KvWorkloadKey, LengthsVaryDeterministically) {
  std::set<std::size_t> lengths;
  for (std::uint64_t r = 0; r < 64; ++r) lengths.insert(make_key(r).size());
  EXPECT_GT(lengths.size(), 1u);  // the flex-alloc path sees size spread
}

TEST(KvWorkloadKey, UniqueOverLargeRankRange) {
  // The regression: with truncated emission, ranks whose scrambles share
  // a top-bit prefix (but differ below it) mapped to the same key. Cover
  // a dense prefill-sized range plus the sparse per-thread insert bases
  // Mix D uses (records + (t+1) << 32).
  std::unordered_set<std::string> seen;
  seen.reserve(220000);
  for (std::uint64_t r = 0; r < 200000; ++r)
    ASSERT_TRUE(seen.insert(make_key(r)).second)
        << "rank " << r << " collided: " << make_key(r);
  for (std::uint64_t t = 1; t <= 8; ++t)
    for (std::uint64_t i = 0; i < 2048; ++i) {
      const std::uint64_t rank = 2048 + (t << 32) + i;
      ASSERT_TRUE(seen.insert(make_key(rank)).second)
          << "rank " << rank << " collided: " << make_key(rank);
    }
}

using CellStore = Store<tm::Norec, rr::RrV<tm::Norec>>;

KvWorkloadConfig read_only_cell() {
  KvWorkloadConfig config;
  config.mix = Mix::kC;
  config.records = 512;
  config.threads = 1;
  config.ops_per_thread = 2000;
  config.trials = 1;
  return config;
}

// Every key the zipfian draws was prefilled, so every read hits; and
// once the cell's store is gone, every node it allocated is freed.
TEST(KvWorkloadCell, ReadOnlyCellHitsAndFreesEveryNode) {
  const long long baseline = reclaim::Gauge::live();
  const KvWorkloadConfig config = read_only_cell();
  const harness::CellResult cell = run_kv_cell(config, [] {
    CellStore::Options opt;
    opt.window = 16;
    return std::make_unique<CellStore>(opt);
  });
  EXPECT_GT(cell.mops.mean, 0.0);
  EXPECT_EQ(cell.column("kv_hits"), config.ops_per_thread);
  EXPECT_EQ(cell.column("kv_misses"), 0u);
  EXPECT_EQ(reclaim::Gauge::live() - baseline, 0)
      << "objects leaked past store teardown";
}

// The same cell on a table frozen at its initial size (long chains, so a
// window of 4 hands over many times per op), unfused and then with a
// fusion budget, every count pinned: fusion elides boundary transactions
// and adds no abort and no quiescence wait. Each thread seeds its
// first-window scatter (Store::initial_scatter) from a ticket the store
// hands out, so the counts are the same in a fresh process and after the
// process has registered and retired threads and run another cell.
TEST(KvWorkloadCell, FrozenWindowFourFusionCountsAreExact) {
  auto frozen_cell = [](int fusion_cap) {
    return run_kv_cell(read_only_cell(), [&] {
      CellStore::Options opt;
      opt.window = 4;
      opt.max_log2_buckets = opt.log2_buckets;  // no growth: long chains
      opt.fusion_cap = fusion_cap;
      return std::make_unique<CellStore>(opt);
    }).counters;
  };
  auto check_pair = [&](const char* history) {
    SCOPED_TRACE(history);
    const tm::StatCounters unfused = frozen_cell(0);
    EXPECT_EQ(unfused.commits, 7807u);
    EXPECT_EQ(unfused.fused_windows, 0u);
    EXPECT_EQ(unfused.aborts, 0u);
    EXPECT_EQ(unfused.quiescence_waits, 0u);
    const tm::StatCounters fused = frozen_cell(16);
    EXPECT_EQ(fused.commits, 2029u);
    EXPECT_EQ(fused.fused_windows, 7039u);
    EXPECT_EQ(fused.aborts, 0u);
    EXPECT_EQ(fused.quiescence_waits, 0u);
  };
  check_pair("as run first");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([] { (void)util::ThreadRegistry::generation(); });
  for (std::thread& th : threads) th.join();
  run_kv_cell(read_only_cell(), [] {
    CellStore::Options opt;
    opt.window = 16;
    return std::make_unique<CellStore>(opt);
  });
  check_pair("after 8 threads and another cell");
}

}  // namespace
}  // namespace hohtm::kv
