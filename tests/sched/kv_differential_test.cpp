// KV differential oracle: one seeded 10k-op script is interpreted
// against every TM backend's Store and against a plain std::map. Every
// operation's result is checked against the reference at the moment it
// executes, the final states are diffed exactly, and the whole observable
// trace of each backend must equal the GLock store's trace (GLock — one
// global mutex — is the trivially correct transactional oracle).
//
// The script is single-threaded on purpose, like differential_test.cpp:
// with no concurrency every backend must be *functionally identical*, so
// the diff is exact (concurrent semantics are covered by the kv tier-1
// churn test and the schedule-exploration suite). Exercised per op:
// put/get/del over a small hot key domain, bounded head scans, ranged
// scan_from ops diffed as exact canonical-order sequences against the
// sorted reference, periodic full-dump set comparison, insert bursts
// that push shards through incremental resize mid-script, and user
// exceptions (via the store's fail hook) that must roll back the whole
// mutating attempt. The final Gauge check proves the script's deletes
// and resizes freed precisely.
//
// A second, batch-shaped script drives Store::run_batch directly: seeded
// batches of 1-16 mixed get/put/del ops over keys spanning every shard,
// many of them issued while a grow is in flight, each op's result
// checked against a std::map applied in batch order, ending
// Gauge-exact.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rr.hpp"
#include "kv/store.hpp"
#include "reclaim/gauge.hpp"
#include "tm/glock.hpp"
#include "tm/norec.hpp"
#include "tm/tl2.hpp"
#include "tm/tleager.hpp"
#include "tm/tml.hpp"
#include "util/random.hpp"

namespace {

constexpr std::size_t kOps = 10000;

struct ScriptedFailure {};

/// Everything observable about one script execution: one encoded result
/// per op, plus the final sorted dump. Backend-independent by design, so
/// traces diff exactly across backends.
struct Trace {
  std::vector<long> results;
  std::vector<std::pair<std::string, std::string>> final_dump;
};

/// The store's canonical scan order: (hash, key) ascending — what
/// scan_from emits, and the order the reference must be sorted into
/// before slicing a range for comparison.
bool canon_key_less(const std::string& a, const std::string& b) {
  return hohtm::kv::detail::precedes(hohtm::kv::detail::hash_bytes(a), a,
                                     hohtm::kv::detail::hash_bytes(b), b);
}

bool canon_entry_less(const std::pair<std::string, std::string>& a,
                      const std::pair<std::string, std::string>& b) {
  return canon_key_less(a.first, b.first);
}

// Out-parameter instead of a return value: the ASSERTs inside require a
// void-returning function (gtest's fatal-failure contract).
template <class TM>
void run_kv_script(std::uint64_t seed, Trace& t) {
  using Store = hohtm::kv::Store<TM, hohtm::rr::RrV<TM>>;
  const long long baseline = hohtm::reclaim::Gauge::live();
  t.results.reserve(kOps);
  {
    // Small window and low growth threshold: the script's bursts drive
    // several table swaps, so resize runs interleaved with the checked
    // operations rather than in a separate phase.
    typename Store::Options opt;
    opt.window = 4;
    opt.grow_chain = 4;
    Store store(opt);
    std::map<std::string, std::string> ref;
    hohtm::util::Xoshiro256 rng(seed);
    std::string value;

    bool armed = false;
    store.set_fail_hook_for_testing([&armed] {
      if (armed) throw ScriptedFailure{};
    });

    for (std::size_t op = 0; op < kOps; ++op) {
      const std::string key = "k" + std::to_string(rng.next_below(192));
      const int dice = static_cast<int>(rng.next_below(100));
      long result = 0;
      if (dice < 30) {
        const std::string val = "v" + std::to_string(op);
        const bool created = store.put(key, val);
        ASSERT_EQ(created, ref.find(key) == ref.end())
            << TM::name() << " op " << op << " (seed " << seed << ")";
        ref[key] = val;
        result = created ? 1 : 0;
      } else if (dice < 55) {
        const bool found = store.get(key, value);
        const auto it = ref.find(key);
        ASSERT_EQ(found, it != ref.end())
            << TM::name() << " op " << op << " (seed " << seed << ")";
        if (found) {
          ASSERT_EQ(value, it->second)
              << TM::name() << " op " << op << " (seed " << seed << ")";
        }
        result = found ? 2 : -2;
      } else if (dice < 75) {
        const bool removed = store.del(key);
        ASSERT_EQ(removed, ref.erase(key) == 1u)
            << TM::name() << " op " << op << " (seed " << seed << ")";
        result = removed ? 3 : -3;
      } else if (dice < 78) {
        // Bounded scan from the table head: visits exactly
        // min(limit, occupancy) entries regardless of layout.
        const std::size_t limit = rng.next_below(32);
        const std::size_t count =
            store.scan(limit, [](const std::string&, const std::string&) {});
        ASSERT_EQ(count, std::min(limit, ref.size()))
            << TM::name() << " op " << op << " (seed " << seed << ")";
        result = static_cast<long>(count);
      } else if (dice < 82) {
        // Ranged scan from a (possibly absent) hot key: the emitted
        // (key, value) sequence must equal the reference's
        // canonical-order slice exactly — the snapshot-consistent
        // prefix, sorted, no duplicates, no phantoms.
        const std::size_t limit =
            1 + static_cast<std::size_t>(rng.next_below(24));
        std::vector<std::pair<std::string, std::string>> got;
        const std::size_t count = store.scan_from(
            key, limit, [&got](const std::string& k, const std::string& v) {
              got.emplace_back(k, v);
            });
        std::vector<std::pair<std::string, std::string>> want(ref.begin(),
                                                              ref.end());
        std::sort(want.begin(), want.end(), canon_entry_less);
        const auto from = std::find_if(
            want.begin(), want.end(),
            [&key](const std::pair<std::string, std::string>& e) {
              return !canon_key_less(e.first, key);  // first not before key
            });
        want.erase(want.begin(), from);
        if (want.size() > limit) want.resize(limit);
        ASSERT_EQ(got, want)
            << TM::name() << " op " << op << " (seed " << seed << ")";
        ASSERT_EQ(count, got.size())
            << TM::name() << " op " << op << " (seed " << seed << ")";
        result = 6 + static_cast<long>(count);
      } else if (dice < 90) {
        // A user exception thrown from inside the mutating transaction:
        // the whole attempt (node allocation included) must vanish, and
        // the exception must reach the caller.
        const bool was_present = ref.find(key) != ref.end();
        armed = true;
        bool thrown = false;
        try {
          if (dice < 86) {
            store.put(key, "phantom");
          } else {
            store.del(key);
          }
        } catch (const ScriptedFailure&) {
          thrown = true;
        }
        armed = false;
        ASSERT_TRUE(thrown)
            << TM::name() << " op " << op << " (seed " << seed << ")";
        ASSERT_EQ(store.get(key, value), was_present)
            << TM::name() << " rollback leaked at op " << op << " (seed "
            << seed << ")";
        if (was_present) {
          ASSERT_EQ(value, ref[key]);
        }
        result = 4;
      } else {
        // Insert burst: fresh keys pile into the hot shards until the
        // observed chains trip another grow, so later ops run against a
        // store that is mid-migration.
        for (int i = 0; i < 24; ++i) {
          const std::string bkey =
              "b" + std::to_string(op) + "-" + std::to_string(i);
          ASSERT_TRUE(store.put(bkey, "burst"))
              << TM::name() << " op " << op << " (seed " << seed << ")";
          ref[bkey] = "burst";
        }
        result = 5;
      }
      t.results.push_back(result);

      if (op % 1000 == 999) {
        // Full-dump checkpoint: the store's contents equal the reference
        // as a set of pairs (scan order is (bucket, hash, key), so the
        // comparison sorts).
        std::set<std::pair<std::string, std::string>> dumped;
        store.scan(ref.size() + 10, [&dumped](const std::string& k,
                                              const std::string& v) {
          dumped.emplace(k, v);
        });
        std::set<std::pair<std::string, std::string>> expected(ref.begin(),
                                                               ref.end());
        ASSERT_EQ(dumped, expected)
            << TM::name() << " checkpoint at op " << op << " (seed " << seed
            << ")";
      }
    }

    store.finish_migration();
    EXPECT_FALSE(store.migrating()) << TM::name();
    EXPECT_EQ(store.tables_retired(), store.tables_swapped()) << TM::name();
    EXPECT_GE(store.tables_swapped(), 1u)
        << TM::name() << ": the bursts never triggered a resize";
    EXPECT_TRUE(store.is_consistent()) << TM::name();
    EXPECT_EQ(store.size(), ref.size()) << TM::name();
    // Settled Gauge-exact accounting: nodes + one table per shard + the
    // reservation algorithm's per-thread state, nothing else.
    EXPECT_EQ(hohtm::reclaim::Gauge::live() - baseline,
              static_cast<long long>(store.size() + store.shard_count() +
                                     store.reservation_overhead()))
        << TM::name() << " (seed " << seed << ")";
    store.scan(ref.size() + 10,
               [&t](const std::string& k, const std::string& v) {
                 t.final_dump.emplace_back(k, v);
               });
    std::sort(t.final_dump.begin(), t.final_dump.end());
  }
  // The store freed every node and table it ever allocated.
  EXPECT_EQ(hohtm::reclaim::Gauge::live(), baseline)
      << TM::name() << " (seed " << seed << ")";
}

template <class TM>
void diff_against_oracle(std::uint64_t seed) {
  Trace oracle;
  ASSERT_NO_FATAL_FAILURE(run_kv_script<hohtm::tm::GLock>(seed, oracle));
  Trace candidate;
  ASSERT_NO_FATAL_FAILURE(run_kv_script<TM>(seed, candidate));
  ASSERT_EQ(candidate.results.size(), oracle.results.size());
  for (std::size_t op = 0; op < oracle.results.size(); ++op) {
    ASSERT_EQ(candidate.results[op], oracle.results[op])
        << TM::name() << " diverged from glock at op " << op << " (seed "
        << seed << ")";
  }
  EXPECT_EQ(candidate.final_dump, oracle.final_dump)
      << TM::name() << " final contents diverged (seed " << seed << ")";
}

TEST(KvDifferential, TmlMatchesGlockOracle) {
  diff_against_oracle<hohtm::tm::Tml>(0x10ad5eedULL);
}

TEST(KvDifferential, NorecMatchesGlockOracle) {
  diff_against_oracle<hohtm::tm::Norec>(0x10ad5eedULL);
}

TEST(KvDifferential, Tl2MatchesGlockOracle) {
  diff_against_oracle<hohtm::tm::Tl2>(0x10ad5eedULL);
}

TEST(KvDifferential, TlEagerMatchesGlockOracle) {
  diff_against_oracle<hohtm::tm::TlEager>(0x10ad5eedULL);
}

// A second seed per backend guards against a lucky script (same policy
// as differential_test.cpp). One test per backend, so each stays inside
// the per-test timeout under ThreadSanitizer.
TEST(KvDifferential, TmlSecondSeed) {
  diff_against_oracle<hohtm::tm::Tml>(0xba5eba11ULL);
}

TEST(KvDifferential, NorecSecondSeed) {
  diff_against_oracle<hohtm::tm::Norec>(0xba5eba11ULL);
}

TEST(KvDifferential, Tl2SecondSeed) {
  diff_against_oracle<hohtm::tm::Tl2>(0xba5eba11ULL);
}

TEST(KvDifferential, TlEagerSecondSeed) {
  diff_against_oracle<hohtm::tm::TlEager>(0xba5eba11ULL);
}

// ---------------------------------------------------------------------------
// Store::run_batch against a std::map applied in batch order.

constexpr std::size_t kBatches = 1500;

template <class TM>
void run_batch_script(std::uint64_t seed) {
  using Store = hohtm::kv::Store<TM, hohtm::rr::RrV<TM>>;
  using hohtm::kv::BatchOp;
  using hohtm::kv::OpCode;
  const long long baseline = hohtm::reclaim::Gauge::live();
  {
    // Fusion on, small window and a low growth threshold: batches fuse,
    // and the growing key population keeps pushing shards through
    // resizes while batches run.
    typename Store::Options opt;
    opt.window = 4;
    opt.grow_chain = 4;
    opt.fusion_cap = 16;
    Store store(opt);
    std::map<std::string, std::string> ref;
    hohtm::util::Xoshiro256 rng(seed);
    std::set<std::size_t> shards_seen;
    std::size_t mid_resize_batches = 0;
    hohtm::kv::BatchCounters bc;
    std::vector<BatchOp> ops;
    for (std::size_t batch = 0; batch < kBatches; ++batch) {
      // The key domain widens as the script runs, so inserts keep coming.
      const std::uint64_t domain = 32 + 2 * batch;
      ops.assign(1 + rng.next_below(16), BatchOp{});
      for (std::size_t k = 0; k < ops.size(); ++k) {
        BatchOp& o = ops[k];
        o.key = "k" + std::to_string(rng.next_below(domain));
        const int dice = static_cast<int>(rng.next_below(100));
        o.op = dice < 45 ? OpCode::kPut
                         : (dice < 75 ? OpCode::kGet : OpCode::kDel);
        if (o.op == OpCode::kPut)
          o.value = "v" + std::to_string(batch) + "." + std::to_string(k);
        shards_seen.insert(store.shard_of_key(o.key));
      }
      if (store.migrating()) ++mid_resize_batches;
      store.run_batch(ops.data(), ops.size(), bc);
      for (std::size_t k = 0; k < ops.size(); ++k) {
        const BatchOp& o = ops[k];
        const auto it = ref.find(o.key);
        const bool present = it != ref.end();
        switch (o.op) {
          case OpCode::kPut:
            ASSERT_EQ(o.hit, !present) << TM::name() << " batch " << batch
                                       << " op " << k << " (seed " << seed
                                       << ")";
            ref[o.key] = o.value;
            break;
          case OpCode::kGet:
            ASSERT_EQ(o.hit, present) << TM::name() << " batch " << batch
                                      << " op " << k << " (seed " << seed
                                      << ")";
            if (present) {
              ASSERT_EQ(o.out, it->second)
                  << TM::name() << " batch " << batch << " op " << k;
            }
            break;
          default:  // kDel
            ASSERT_EQ(o.hit, present) << TM::name() << " batch " << batch
                                      << " op " << k << " (seed " << seed
                                      << ")";
            ref.erase(o.key);
            break;
        }
      }
    }
    EXPECT_EQ(shards_seen.size(), store.shard_count()) << TM::name();
    EXPECT_GT(mid_resize_batches, 0u)
        << TM::name() << ": no batch ran while a grow was in flight";
    EXPECT_GT(bc.fused_ops, 0u) << TM::name() << ": nothing fused";
    EXPECT_GE(store.tables_swapped(), 1u) << TM::name();

    store.finish_migration();
    EXPECT_FALSE(store.migrating()) << TM::name();
    EXPECT_EQ(store.tables_retired(), store.tables_swapped()) << TM::name();
    EXPECT_TRUE(store.is_consistent()) << TM::name();
    EXPECT_EQ(store.size(), ref.size()) << TM::name();
    std::set<std::pair<std::string, std::string>> dumped;
    store.scan(ref.size() + 10,
               [&dumped](const std::string& k, const std::string& v) {
                 dumped.emplace(k, v);
               });
    EXPECT_EQ(dumped, (std::set<std::pair<std::string, std::string>>(
                          ref.begin(), ref.end())))
        << TM::name();
    EXPECT_EQ(hohtm::reclaim::Gauge::live() - baseline,
              static_cast<long long>(store.size() + store.shard_count() +
                                     store.reservation_overhead()))
        << TM::name() << " (seed " << seed << ")";
  }
  EXPECT_EQ(hohtm::reclaim::Gauge::live(), baseline)
      << TM::name() << " (seed " << seed << ")";
}

TEST(KvBatchDifferential, GlockMatchesMap) {
  run_batch_script<hohtm::tm::GLock>(0xba7c4edULL);
}

TEST(KvBatchDifferential, TmlMatchesMap) {
  run_batch_script<hohtm::tm::Tml>(0xba7c4edULL);
}

TEST(KvBatchDifferential, NorecMatchesMap) {
  run_batch_script<hohtm::tm::Norec>(0xba7c4edULL);
  run_batch_script<hohtm::tm::Norec>(0x5eed0b17ULL);
}

TEST(KvBatchDifferential, Tl2MatchesMap) {
  run_batch_script<hohtm::tm::Tl2>(0xba7c4edULL);
}

TEST(KvBatchDifferential, TlEagerMatchesMap) {
  run_batch_script<hohtm::tm::TlEager>(0xba7c4edULL);
}

}  // namespace
