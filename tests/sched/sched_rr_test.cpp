// Schedule exploration of the revocable-reservation protocols: a
// hand-over-hand traverser that reserves a node in one transaction and
// dereferences it through a later Get, racing a remover that revokes the
// node, waits on the quiescence fence, and "frees" it (here: stamps a
// tombstone, so a use-after-free is an assertion instead of UB).
//
// Invariant (paper §3): a Get that commits non-nil entitles the holder
// to dereference the reference in that same transaction. The kDropRevoke
// mutant disables the revocation write and the explorer must find the
// resulting stale-dereference within a bounded number of schedules.
//
// Backend is TML: its conflict detection is address-independent (one
// global seqlock), so recycled thread-registry slot numbers can never
// change control flow between schedules — a determinism requirement of
// DFS prefix replay (src/sched/scheduler.hpp).
#include <cstddef>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/rr_so.hpp"
#include "core/rr_v.hpp"
#include "core/rr_xo.hpp"
#include "sched/explore.hpp"
#include "sched/schedpoint.hpp"
#include "tm/config.hpp"
#include "tm/norec.hpp"
#include "tm/tml.hpp"

namespace {

using hohtm::sched::ExploreResult;
using hohtm::sched::Mutation;
using hohtm::sched::Scenario;
using hohtm::sched::describe;
using hohtm::sched::depth_multiplier;
using hohtm::sched::explore_dfs;
using hohtm::sched::explore_random;
using hohtm::sched::format_steps;
using hohtm::sched::replay_choices;
using hohtm::sched::replay_random;
using hohtm::sched::set_mutation;
using hohtm::tm::Norec;
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

template <class R>
struct RrState {
  struct Node {
    long tombstone = 0;
  };
  // Static storage: addresses (and thus reservation hash slots) are
  // identical across schedules. The reservation object is constructed
  // once; each schedule's own register/reserve/revoke sequence rewrites
  // every word it later reads, so no per-schedule reset is needed.
  static inline Node node;
  static inline R reservations{4};
  static inline bool stale_deref;
};

template <class R>
Scenario rr_scenario() {
  using S = RrState<R>;
  Scenario s;
  s.setup = [] {
    S::node.tombstone = 0;
    S::stale_deref = false;
  };
  s.bodies = {
      // Traverser: reserve in one transaction, then (hand-over-hand) a
      // later transaction re-acquires the reference through Get and
      // dereferences it. Get == nil means the remover won; back off.
      [] {
        Tml::atomically([](auto& tx) {
          S::reservations.register_thread(tx);
          S::reservations.reserve(tx, &S::node);
        });
        const long saw = Tml::atomically([](auto& tx) -> long {
          const hohtm::rr::Ref ref = S::reservations.get(tx);
          if (ref == nullptr) return -1;
          return tx.read(S::node.tombstone);
        });
        if (saw == 1) S::stale_deref = true;
      },
      // Remover: revoke, fence, "free".
      [] {
        Tml::atomically(
            [](auto& tx) { S::reservations.revoke(tx, &S::node); });
        Tml::quiesce_before_free();
        hohtm::tm::atomic_store(S::node.tombstone, 1L);
      },
  };
  s.check = [] {
    return S::stale_deref
               ? std::string("committed Get returned a freed reference")
               : std::string();
  };
  return s;
}

template <class R>
void expect_reservation_protects() {
  ScenarioGuard guard;
  const ExploreResult r =
      explore_dfs(rr_scenario<R>(), 8000 * depth_multiplier(), 400);
  EXPECT_FALSE(r.failed) << R::name() << ": " << describe(r);
}

template <class R>
void expect_drop_revoke_caught() {
  ScenarioGuard guard;
  const Scenario s = rr_scenario<R>();
  set_mutation(Mutation::kDropRevoke);
  const ExploreResult r =
      explore_dfs(s, 40000 * depth_multiplier(), 400);
  ASSERT_TRUE(r.failed) << R::name() << ": mutant survived " << describe(r);
  ASSERT_FALSE(r.failing_choices.empty());
  const ExploreResult again = replay_choices(s, r.failing_choices, 400);
  EXPECT_TRUE(again.failed) << R::name() << ": " << describe(again);
  EXPECT_EQ(format_steps(again.failing_steps), format_steps(r.failing_steps))
      << R::name() << ": replay diverged";
}

TEST(SchedRr, RrXoReservationProtectsTraverser) {
  REQUIRE_SCHED_BUILD();
  expect_reservation_protects<hohtm::rr::RrXo<Tml>>();
}
TEST(SchedRr, RrSoReservationProtectsTraverser) {
  REQUIRE_SCHED_BUILD();
  expect_reservation_protects<hohtm::rr::RrSo<Tml>>();
}
TEST(SchedRr, RrVReservationProtectsTraverser) {
  REQUIRE_SCHED_BUILD();
  expect_reservation_protects<hohtm::rr::RrV<Tml>>();
}

TEST(SchedRr, RrXoDropRevokeMutantCaught) {
  REQUIRE_SCHED_BUILD();
  expect_drop_revoke_caught<hohtm::rr::RrXo<Tml>>();
}
TEST(SchedRr, RrSoDropRevokeMutantCaught) {
  REQUIRE_SCHED_BUILD();
  expect_drop_revoke_caught<hohtm::rr::RrSo<Tml>>();
}
TEST(SchedRr, RrVDropRevokeMutantCaught) {
  REQUIRE_SCHED_BUILD();
  expect_drop_revoke_caught<hohtm::rr::RrV<Tml>>();
}

// ---------------------------------------------------------------------------
// Aborted window, private reservation cell. RR-V keeps each thread's
// {ref, version} cell owner-private (tm::PrivateCell): the writes are
// buffered and must be written back only if the transaction commits.
//
// The list is head -> B. The traverser's window also removes a node A
// (the scenario keeps only A's revoke) before parking on B. The RR-V object
// has a single version counter (log2_slots = 0), so A and B share it, as
// colliding references do in any relaxed table. The window therefore
// reads its *own* buffered bump when it reserves B: the private cell says
// {B, c+1} while memory still says c. NOrec validates that window at
// commit; when the remover has meanwhile unlinked and revoked B (c -> c+1)
// the window aborts, drops its buffered revoke of A, retries, finds the
// list empty, and reserves nothing. Under kPrivateWriteBackOnAbort the
// aborted window's cell {B, c+1} lands anyway and now matches the counter
// the remover bumped, so the traverser's next Get hands back B after the
// remover freed it. NOrec rather than TML: a TML window becomes the
// irrevocable writer at its first write and cannot abort after reserving.

struct WindowNode {
  long tombstone = 0;
};

struct AbortedWindowState {
  using Node = WindowNode;
  static inline Node a;
  static inline Node b;
  static inline Node* head_next = nullptr;
  static inline hohtm::rr::RrV<Norec> reservations{0};
  static inline bool stale_deref;
};

Scenario aborted_window_scenario() {
  using S = AbortedWindowState;
  Scenario s;
  s.setup = [] {
    S::head_next = &S::b;
    S::b.tombstone = 0;
    S::stale_deref = false;
  };
  s.bodies = {
      // Traverser: one window revokes A and parks on B; the
      // next window resumes through Get and dereferences what it got.
      [] {
        Norec::atomically([](auto& tx) {
          S::reservations.register_thread(tx);
          S::Node* next = tx.read(S::head_next);
          if (next == nullptr) return;
          S::reservations.revoke(tx, &S::a);
          S::reservations.reserve(tx, next);
        });
        const long saw = Norec::atomically([](auto& tx) -> long {
          const hohtm::rr::Ref ref = S::reservations.get(tx);
          if (ref == nullptr) return -1;
          return tx.read(static_cast<const S::Node*>(ref)->tombstone);
        });
        if (saw == 1) S::stale_deref = true;
      },
      // Remover: unlink and revoke B, fence, "free".
      [] {
        Norec::atomically([](auto& tx) {
          tx.write(S::head_next, static_cast<S::Node*>(nullptr));
          S::reservations.revoke(tx, &S::b);
        });
        Norec::quiesce_before_free();
        hohtm::tm::atomic_store(S::b.tombstone, 1L);
      },
  };
  s.check = [] {
    return S::stale_deref
               ? std::string("committed Get returned a freed reference")
               : std::string();
  };
  return s;
}

// PCT rather than DFS: the losing interleaving preempts the traverser
// inside its first window, near the root of a deep schedule tree, which
// DFS reaches last; PCT at depth 2 finds it within a few hundred seeds.
constexpr std::uint64_t kAbortedWindowSeed = 0xab0e7ULL;
constexpr std::size_t kAbortedWindowDepth = 2;

TEST(SchedRr, RrVAbortedWindowDropsPrivateReservation) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const ExploreResult r =
      explore_random(aborted_window_scenario(), kAbortedWindowSeed,
                     2000 * depth_multiplier(), kAbortedWindowDepth, 400);
  EXPECT_FALSE(r.failed) << describe(r);
}

TEST(SchedRr, RrVPrivateWriteBackOnAbortMutantCaught) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const Scenario s = aborted_window_scenario();
  set_mutation(Mutation::kPrivateWriteBackOnAbort);
  const ExploreResult r =
      explore_random(s, kAbortedWindowSeed, 2000 * depth_multiplier(),
                     kAbortedWindowDepth, 400);
  ASSERT_TRUE(r.failed) << "mutant survived " << describe(r);
  const ExploreResult again =
      replay_random(s, r.failing_seed, r.pct_depth, 400);
  EXPECT_TRUE(again.failed) << describe(again);
  EXPECT_EQ(format_steps(again.failing_steps), format_steps(r.failing_steps))
      << "replay diverged";
}

}  // namespace
