// Schedule exploration of the KV store's bucket-migration protocol.
//
// Two scenarios:
//
//  1. The anchor-handover discipline in isolation (static state, exact
//     mirror of the store's park_anchor/resume_anchor calls): a migrator
//     parks its insertion anchor at a window boundary and resumes it in
//     the next window's transaction, racing a deleter that revokes the
//     anchor, waits on the quiescence fence, and "frees" it (stamps a
//     tombstone, so a stale resume is an assertion instead of UB). The
//     kDropMigrationReserve mutant parks a raw cached pointer instead of
//     reserving — exactly the bug the reservation prevents — and the
//     explorer must catch it within a bounded budget, with the failing
//     schedule replaying byte-identically from its recorded choices.
//
//  2. The real Store mid-resize: one shard, one old bucket, window = 1,
//     a migrator driving single-node migration windows against a delete
//     whose walk finds its bucket unmigrated and migrates it, racing. Every interleaving must end
//     settled, consistent, and with the old table retired precisely.
//
// Backend is TML throughout: its conflict detection is address-
// independent (one global seqlock), the determinism requirement of DFS
// prefix replay (src/sched/scheduler.hpp). Scenario 2 uses RR-Null so
// no reservation hash slot depends on recycled registry slot numbers.
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "core/rr_null.hpp"
#include "core/rr_v.hpp"
#include "kv/store.hpp"
#include "sched/explore.hpp"
#include "sched/schedpoint.hpp"
#include "tm/config.hpp"
#include "tm/tml.hpp"

namespace {

using hohtm::sched::ExploreResult;
using hohtm::sched::Mutation;
using hohtm::sched::Scenario;
using hohtm::sched::describe;
using hohtm::sched::depth_multiplier;
using hohtm::sched::explore_dfs;
using hohtm::sched::format_steps;
using hohtm::sched::replay_choices;
using hohtm::sched::set_mutation;
using hohtm::tm::Tml;

#define REQUIRE_SCHED_BUILD()                                       \
  do {                                                              \
    if constexpr (!hohtm::sched::kSchedBuild)                       \
      GTEST_SKIP() << "needs -DHOHTM_SCHED=ON (scripts/check.sh "   \
                      "--sched)";                                   \
  } while (0)

struct ScenarioGuard {
  ScenarioGuard() { hohtm::tm::Config::set_serial_threshold(1000); }
  ~ScenarioGuard() {
    set_mutation(Mutation::kNone);
    hohtm::tm::Config::set_serial_threshold(8);
  }
};

// ---------------------------------------------------------------------------
// Scenario 1: anchor handover vs. concurrent delete, distilled.

struct AnchorNode {
  long tombstone = 0;
};

struct AnchorState {
  using Node = AnchorNode;
  // Static storage: addresses are identical across schedules, so the
  // recorded steps of a failing schedule compare byte-for-byte with its
  // replay. Each schedule's own park/resume/revoke sequence rewrites
  // every reservation word it later reads, so no per-schedule RR reset
  // is needed (same reasoning as sched_rr_test.cpp).
  static inline Node node;
  static inline hohtm::rr::RrV<Tml> reservations{4};
  static inline bool stale_resume;
};

Scenario anchor_scenario() {
  using S = AnchorState;
  Scenario s;
  s.setup = [] {
    S::node.tombstone = 0;
    S::stale_resume = false;
  };
  s.bodies = {
      // Migrator: one window transaction ends by parking the anchor
      // (release + reserve — or, under the mutant, a raw cached
      // pointer); the next window's transaction resumes it and uses it.
      // A nil resume means the deleter won; restart from the head (here:
      // back off, the distilled scenario has nothing else to traverse).
      [] {
        hohtm::rr::Ref raw_cache = nullptr;
        Tml::atomically([&](auto& tx) {
          S::reservations.register_thread(tx);
          hohtm::kv::detail::park_anchor(S::reservations, tx, &S::node,
                                         raw_cache);
        });
        const long saw = Tml::atomically([&](auto& tx) -> long {
          const hohtm::rr::Ref ref =
              hohtm::kv::detail::resume_anchor(S::reservations, tx,
                                               raw_cache);
          if (ref == nullptr) return -1;
          const long t = tx.read(S::node.tombstone);
          S::reservations.release(tx);
          return t;
        });
        if (saw == 1) S::stale_resume = true;
      },
      // Deleter: unlink-equivalent — revoke the node, wait for every
      // in-flight transaction, then "free" it.
      [] {
        Tml::atomically(
            [](auto& tx) { S::reservations.revoke(tx, &S::node); });
        Tml::quiesce_before_free();
        hohtm::tm::atomic_store(S::node.tombstone, 1L);
      },
  };
  s.check = [] {
    return S::stale_resume
               ? std::string("migration resumed a freed anchor")
               : std::string();
  };
  return s;
}

TEST(SchedKv, AnchorHandoverProtectsMigrationResume) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const ExploreResult r =
      explore_dfs(anchor_scenario(), 8000 * depth_multiplier(), 400);
  EXPECT_FALSE(r.failed) << describe(r);
}

TEST(SchedKv, DropMigrationReserveMutantCaught) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const Scenario s = anchor_scenario();
  set_mutation(Mutation::kDropMigrationReserve);
  const ExploreResult r =
      explore_dfs(s, 40000 * depth_multiplier(), 400);
  ASSERT_TRUE(r.failed) << "mutant survived " << describe(r);
  ASSERT_FALSE(r.failing_choices.empty());
  const ExploreResult again = replay_choices(s, r.failing_choices, 400);
  EXPECT_TRUE(again.failed) << describe(again);
  EXPECT_EQ(format_steps(again.failing_steps), format_steps(r.failing_steps))
      << "replay diverged";
}

// ---------------------------------------------------------------------------
// Scenario 2: the real Store, one old bucket mid-resize, migration
// windows racing a delete.

using SchedStore = hohtm::kv::Store<Tml, hohtm::rr::RrNull<Tml>>;

struct StoreState {
  static inline std::optional<SchedStore> store;
  static inline int keys = 0;  // inserted by setup before the swap landed
};

Scenario migration_scenario() {
  Scenario s;
  s.setup = [] {
    StoreState::store.reset();
    // One shard, one initial bucket, single-node windows, growth after a
    // chain of 1 — and no auto-help, so setup leaves the resize pending
    // instead of finishing it. (window = 1 also keeps the insertion
    // scatter off: every schedule issues the identical transactions.)
    StoreState::store.emplace(SchedStore::Options{
        /*log2_shards=*/0, /*log2_buckets=*/0, /*max_log2_buckets=*/4,
        /*window=*/1, /*grow_chain=*/1, /*auto_migrate=*/false});
    SchedStore& st = *StoreState::store;
    // Insert until a put lands *behind* an existing node in the chain's
    // (hash, key) order and trips the grow — position in that order is
    // hash-dependent, so the count is discovered, not hard-coded. The
    // hash is seedless, so every schedule (and every run of this binary)
    // inserts the identical sequence; the check asserts the swap landed.
    StoreState::keys = 0;
    for (int i = 0; i < 8 && st.tables_swapped() == 0; ++i) {
      st.put("m" + std::to_string(i), "v" + std::to_string(i));
      StoreState::keys = i + 1;
    }
  };
  s.bodies = {
      // Migrator: drive the old bucket to completion one node at a time
      // (each window is its own transaction with a parked anchor
      // between; the last one frees the old table).
      [] {
        while (!StoreState::store->migrate_bucket_window_for("m0")) {
        }
      },
      // Deleter: del("m1")'s first window finds its bucket (the same
      // one — there is only one) unmigrated, so it migrates it, and its
      // windows interleave with the migrator's before the
      // unlink-and-dealloc transaction runs.
      [] { StoreState::store->del("m1"); },
  };
  s.check = [] {
    SchedStore& st = *StoreState::store;
    if (st.tables_swapped() != 1)
      return std::string("setup never installed the resize");
    if (st.migrating()) return std::string("store still mid-resize");
    if (st.tables_retired() != st.tables_swapped())
      return std::string("old table not retired precisely");
    if (!st.is_consistent()) return std::string("chain invariants broken");
    if (st.size() != static_cast<std::size_t>(StoreState::keys - 1))
      return std::string("wrong size after delete");
    std::string v;
    if (st.get("m1", v)) return std::string("deleted key m1 survived");
    for (int i = 0; i < StoreState::keys; ++i) {
      if (i == 1) continue;
      if (!st.get("m" + std::to_string(i), v) ||
          v != "v" + std::to_string(i))
        return std::string("lost key m") + std::to_string(i);
    }
    return std::string();
  };
  return s;
}

TEST(SchedKv, MigrationWindowsVsConcurrentDelete) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  // Each schedule re-runs the store setup (a few puts and a table swap)
  // plus every migration-window transaction — heavier than the distilled
  // scenarios, so the budget is sized for the sched job's 180 s per-test
  // timeout; CI's deep job raises it through HOH_SCHED_DEPTH.
  const ExploreResult r =
      explore_dfs(migration_scenario(), 2000 * depth_multiplier(), 400);
  EXPECT_FALSE(r.failed) << describe(r);
  // The scenario must genuinely branch (a single-schedule "exploration"
  // would mean the bodies hit no concurrent sched points at all).
  EXPECT_GT(r.schedules, 1u) << describe(r);
  std::cout << "   [exploration] " << describe(r) << "\n";
  StoreState::store.reset();
}

}  // namespace
