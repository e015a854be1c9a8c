// Tier-1 coverage for the sharded transactional KV store: the full
// backend x reservation matrix on the basic API, reference-checked
// random histories, incremental resize with precise old-table
// reclamation (Gauge-exact, no sleeps), scans, and rollback of a
// failing mutation, and exact transaction counts per op and per
// pipelined batch. Concurrency cases are small and assertion-driven —
// nothing here depends on timing (single-core CI box).
#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rr.hpp"
#include "ds/window_tuner.hpp"
#include "reclaim/gauge.hpp"
#include "tm/config.hpp"
#include "util/random.hpp"

namespace hohtm {
namespace {

template <class TM_, class RR_>
struct Combo {
  using TM = TM_;
  using RR = RR_;
};

template <class C>
class KvStoreTest : public ::testing::Test {
 protected:
  using Store = kv::Store<typename C::TM, typename C::RR>;
};

using Combos = ::testing::Types<
    Combo<tm::GLock, rr::RrV<tm::GLock>>,
    Combo<tm::Tml, rr::RrXo<tm::Tml>>,
    Combo<tm::Norec, rr::RrV<tm::Norec>>,
    Combo<tm::Norec, rr::RrFa<tm::Norec>>,
    Combo<tm::Tl2, rr::RrSo<tm::Tl2>>,
    Combo<tm::TlEager, rr::RrDm<tm::TlEager>>,
    Combo<tm::Norec, rr::RrNull<tm::Norec>>>;
TYPED_TEST_SUITE(KvStoreTest, Combos);

TYPED_TEST(KvStoreTest, PutGetDelBasics) {
  typename TestFixture::Store store;
  std::string value;
  EXPECT_FALSE(store.get("alpha", value));
  EXPECT_TRUE(store.put("alpha", "1"));
  EXPECT_TRUE(store.get("alpha", value));
  EXPECT_EQ(value, "1");
  // Overwrite: not a new key, and readers see the new value.
  EXPECT_FALSE(store.put("alpha", "2"));
  EXPECT_TRUE(store.get("alpha", value));
  EXPECT_EQ(value, "2");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.del("alpha"));
  EXPECT_FALSE(store.del("alpha"));
  EXPECT_FALSE(store.get("alpha", value));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.is_consistent());
}

TYPED_TEST(KvStoreTest, VariableLengthKeysAndValues) {
  typename TestFixture::Store store;
  std::string value;
  // Empty key and empty value are legal payloads.
  EXPECT_TRUE(store.put("", "empty-key"));
  EXPECT_TRUE(store.put("empty-value", ""));
  EXPECT_TRUE(store.get("", value));
  EXPECT_EQ(value, "empty-key");
  EXPECT_TRUE(store.get("empty-value", value));
  EXPECT_EQ(value, "");
  // A value larger than any pool size class still round-trips (the flex
  // node is one block; the allocator routes big blocks by header).
  const std::string big(5000, 'x');
  const std::string key(300, 'k');
  EXPECT_TRUE(store.put(key, big));
  EXPECT_TRUE(store.get(key, value));
  EXPECT_EQ(value, big);
  EXPECT_TRUE(store.del(key));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.is_consistent());
}

TYPED_TEST(KvStoreTest, MatchesReferenceHistory) {
  typename TestFixture::Store store;
  std::map<std::string, std::string> reference;
  util::Xoshiro256 rng(0x6b765eedULL);
  std::string value;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(96));
    const int dice = static_cast<int>(rng.next_below(100));
    if (dice < 40) {
      const std::string val = "v" + std::to_string(i);
      const bool created = store.put(key, val);
      EXPECT_EQ(created, reference.find(key) == reference.end());
      reference[key] = val;
    } else if (dice < 65) {
      const bool removed = store.del(key);
      EXPECT_EQ(removed, reference.erase(key) == 1u);
    } else {
      const bool found = store.get(key, value);
      const auto it = reference.find(key);
      ASSERT_EQ(found, it != reference.end());
      if (found) {
        EXPECT_EQ(value, it->second);
      }
    }
  }
  EXPECT_EQ(store.size(), reference.size());
  EXPECT_TRUE(store.is_consistent());
  // Full dump equals the reference as a set of pairs.
  std::set<std::pair<std::string, std::string>> dumped;
  store.scan(reference.size() + 10, [&](const std::string& k,
                                        const std::string& v) {
    dumped.emplace(k, v);
  });
  std::set<std::pair<std::string, std::string>> expected(reference.begin(),
                                                         reference.end());
  EXPECT_EQ(dumped, expected);
}

TYPED_TEST(KvStoreTest, GrowCompletesAndFreesOldTablesPrecisely) {
  const long long baseline = reclaim::Gauge::live();
  {
    typename TestFixture::Store store;
    const std::size_t initial_buckets = store.bucket_count();
    for (int i = 0; i < 400; ++i)
      ASSERT_TRUE(store.put("key" + std::to_string(i), "v"));
    EXPECT_GE(store.tables_swapped(), 1u) << "growth never triggered";
    store.finish_migration();
    EXPECT_FALSE(store.migrating());
    // Every swap's old table was freed precisely (in the transaction
    // that migrated its last bucket — not by any background reclaimer).
    EXPECT_EQ(store.tables_retired(), store.tables_swapped());
    EXPECT_GT(store.bucket_count(), initial_buckets);
    EXPECT_GT(store.migrated_buckets(), 0u);
    EXPECT_TRUE(store.is_consistent());
    EXPECT_EQ(store.size(), 400u);
    std::string value;
    for (int i = 0; i < 400; ++i)
      EXPECT_TRUE(store.get("key" + std::to_string(i), value)) << i;
    // Gauge-exact accounting at the settled state: live objects are the
    // nodes, exactly one table per shard, and whatever per-thread state
    // the reservation algorithm owns (RR-FA/RR-DM allocate one node per
    // registered thread) — no retired table and no deleted node lingers.
    const long long tables =
        static_cast<long long>(store.shard_count());
    const long long rr_nodes =
        static_cast<long long>(store.reservation_overhead());
    EXPECT_EQ(reclaim::Gauge::live() - baseline,
              static_cast<long long>(store.size()) + tables + rr_nodes);
  }
  EXPECT_EQ(reclaim::Gauge::live(), baseline);
}

TYPED_TEST(KvStoreTest, DeleteFreesInTheUnlinkingTransaction) {
  typename TestFixture::Store store;
  for (int i = 0; i < 8; ++i)
    store.put("stable" + std::to_string(i), "v");
  store.finish_migration();
  const long long settled = reclaim::Gauge::live();
  ASSERT_TRUE(store.put("victim", "v"));
  EXPECT_EQ(reclaim::Gauge::live(), settled + 1);
  // The delete's own commit returns the node: no epoch to advance, no
  // scan to run, the gauge drops before the call returns.
  ASSERT_TRUE(store.del("victim"));
  EXPECT_EQ(reclaim::Gauge::live(), settled);
  // Overwrite frees the replaced node the same way: net zero.
  ASSERT_FALSE(store.put("stable0", "fresh"));
  EXPECT_EQ(reclaim::Gauge::live(), settled);
}

TYPED_TEST(KvStoreTest, ScanBoundsAndOrder) {
  typename TestFixture::Store store;
  std::vector<std::pair<std::string, std::string>> dump;
  const auto collect = [&](const std::string& k, const std::string& v) {
    dump.emplace_back(k, v);
  };
  EXPECT_EQ(store.scan(10, collect), 0u);
  for (int i = 0; i < 50; ++i)
    store.put("s" + std::to_string(i), std::to_string(i));
  dump.clear();
  EXPECT_EQ(store.scan(7, collect), 7u);
  EXPECT_EQ(dump.size(), 7u);
  dump.clear();
  EXPECT_EQ(store.scan(1000, collect), 50u);
  EXPECT_EQ(dump.size(), 50u);
  // scan_from an existing key starts exactly at that key.
  dump.clear();
  EXPECT_EQ(store.scan_from("s17", 1, collect), 1u);
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].first, "s17");
  EXPECT_EQ(dump[0].second, "17");
  EXPECT_TRUE(store.is_consistent());
}

TYPED_TEST(KvStoreTest, FailHookRollsBackTheWholeAttempt) {
  typename TestFixture::Store store;
  store.put("kept", "old");
  store.finish_migration();
  const long long settled = reclaim::Gauge::live();
  struct Boom {};
  bool arm = false;
  store.set_fail_hook_for_testing([&] {
    if (arm) throw Boom{};
  });
  arm = true;
  // A failing insert rolls back its node allocation (gauge unchanged)
  // and leaves the map untouched.
  EXPECT_THROW(store.put("phantom", "x"), Boom);
  // A failing overwrite neither frees the old node nor leaks the new.
  EXPECT_THROW(store.put("kept", "new"), Boom);
  // A failing delete keeps the node.
  EXPECT_THROW(store.del("kept"), Boom);
  arm = false;
  EXPECT_EQ(reclaim::Gauge::live(), settled);
  std::string value;
  EXPECT_FALSE(store.get("phantom", value));
  EXPECT_TRUE(store.get("kept", value));
  EXPECT_EQ(value, "old");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.is_consistent());
}

TYPED_TEST(KvStoreTest, ConcurrentChurnSettlesPrecisely) {
  const long long baseline = reclaim::Gauge::live();
  {
    typename TestFixture::Store store;
    const int kThreads = 2;
    const int kOps = 1500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        util::Xoshiro256 rng(0xc0ffee + t);
        std::string value;
        for (int i = 0; i < kOps; ++i) {
          const std::string key = "c" + std::to_string(rng.next_below(256));
          const int dice = static_cast<int>(rng.next_below(100));
          if (dice < 45) {
            store.put(key, "t" + std::to_string(t));
          } else if (dice < 70) {
            store.del(key);
          } else {
            store.get(key, value);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    // The churn inserts enough distinct keys to trigger growth; the
    // migration protocol must have completed (or completes now) under
    // the mutation that ran concurrently with it.
    store.finish_migration();
    EXPECT_FALSE(store.migrating());
    EXPECT_GE(store.tables_swapped(), 1u);
    EXPECT_EQ(store.tables_retired(), store.tables_swapped());
    EXPECT_TRUE(store.is_consistent());
    const long long tables = static_cast<long long>(store.shard_count());
    const long long rr_nodes =
        static_cast<long long>(store.reservation_overhead());
    EXPECT_EQ(reclaim::Gauge::live() - baseline,
              static_cast<long long>(store.size()) + tables + rr_nodes);
  }
  EXPECT_EQ(reclaim::Gauge::live(), baseline);
}

std::uint64_t total_commits() { return tm::Stats::total().commits; }

TYPED_TEST(KvStoreTest, SettledOpsCommitExactlyOneTransaction) {
  using S = typename TestFixture::Store;
  typename S::Options opt;
  opt.log2_buckets = 8;  // 1024 buckets for 32 keys: no insert nears a grow
  S store(opt);
  for (int i = 0; i < 32; ++i) store.put("settled" + std::to_string(i), "v");
  store.finish_migration();
  ASSERT_FALSE(store.migrating());
  std::string value;
  // One window transaction per op on a settled shard: no migration probe
  // before the op and no helper window after it.
  std::uint64_t before = total_commits();
  ASSERT_TRUE(store.get("settled3", value));
  EXPECT_EQ(total_commits() - before, 1u) << "get";
  before = total_commits();
  ASSERT_FALSE(store.put("settled3", "overwrite"));
  EXPECT_EQ(total_commits() - before, 1u) << "overwrite put";
  before = total_commits();
  ASSERT_TRUE(store.put("fresh", "insert"));
  EXPECT_EQ(total_commits() - before, 1u) << "insert put";
  before = total_commits();
  ASSERT_TRUE(store.del("fresh"));
  EXPECT_EQ(total_commits() - before, 1u) << "del";
  before = total_commits();
  ASSERT_FALSE(store.get("absent", value));
  EXPECT_EQ(total_commits() - before, 1u) << "get miss";
  EXPECT_EQ(store.tables_swapped(), 0u);
}

TYPED_TEST(KvStoreTest, WarmedSameShardBatchCommitsTwoTransactions) {
  using S = typename TestFixture::Store;
  typename S::Options opt;
  opt.log2_shards = 0;   // one shard: the whole batch is one fuseable run
  opt.log2_buckets = 10;
  opt.fusion_cap = 16;
  S store(opt);
  for (int i = 0; i < 64; ++i) store.put("b" + std::to_string(i), "v");
  std::string value;
  // Warm the fusion gate: a clean streak of single ops earns the budget.
  for (int i = 0; i < 2 * ds::WindowTuner::kGrowStreak; ++i)
    store.get("b" + std::to_string(i % 64), value);
  std::vector<kv::BatchOp> ops(16);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    kv::BatchOp& o = ops[k];
    o.key = "b" + std::to_string(k);
    o.op = k % 4 == 1 ? kv::OpCode::kPut
                      : (k % 4 == 3 ? kv::OpCode::kDel : kv::OpCode::kGet);
    o.value = "w" + std::to_string(k);
  }
  ops[14].key = "new-key";  // an insert, far below the grow threshold
  ops[14].op = kv::OpCode::kPut;
  kv::BatchCounters bc;
  const std::uint64_t before = total_commits();
  store.run_batch(ops.data(), ops.size(), bc);
  // One read-only prefetch transaction plus one fused group.
  EXPECT_EQ(total_commits() - before, 2u);
  EXPECT_EQ(bc.batch_txs, 1u);
  EXPECT_EQ(bc.fused_ops, 16u);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    if (k == 14) {
      EXPECT_TRUE(ops[k].hit) << "insert reported as overwrite";
      continue;
    }
    if (ops[k].op == kv::OpCode::kPut) {
      EXPECT_FALSE(ops[k].hit) << k;  // overwrite
    } else {
      EXPECT_TRUE(ops[k].hit) << k;
    }
    if (ops[k].op == kv::OpCode::kGet) {
      EXPECT_EQ(ops[k].out, "v") << k;
    }
  }
  EXPECT_TRUE(store.get("b1", value));
  EXPECT_EQ(value, "w1");
  EXPECT_FALSE(store.get("b3", value));
  EXPECT_TRUE(store.get("new-key", value));
  EXPECT_EQ(value, "w14");
  EXPECT_TRUE(store.is_consistent());
}

TYPED_TEST(KvStoreTest, OpsAloneFinishAResize) {
  using S = typename TestFixture::Store;
  typename S::Options opt;
  opt.log2_shards = 0;  // one shard, so one key's ops must finish it all
  S store(opt);
  int keys = 0;
  while (store.tables_swapped() == 0) {
    ASSERT_LT(keys, 10000) << "growth never triggered";
    store.put("r" + std::to_string(keys++), "v");
  }
  ASSERT_TRUE(store.migrating());
  // Only gets of one key: its own bucket migrates on the first, and the
  // rest of the old table moves only because every op that sees the
  // resize helps one more bucket. No finish_migration.
  std::string value;
  int ops = 0;
  while (store.migrating()) {
    ASSERT_LT(ops, 100000) << "ops alone never finished the resize";
    ASSERT_TRUE(store.get("r0", value));
    ++ops;
  }
  EXPECT_EQ(store.tables_retired(), store.tables_swapped());
  EXPECT_TRUE(store.is_consistent());
  EXPECT_EQ(store.size(), static_cast<std::size_t>(keys));
}

}  // namespace
}  // namespace hohtm
