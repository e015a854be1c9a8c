// Schedule exploration of the TM backends' synchronization protocols,
// plus the bug-injection mutants that validate the explorer itself
// (docs/TESTING.md). The scenarios need the compiled-in SchedPoint hooks,
// so every test skips unless the build was configured with -DHOHTM_SCHED=ON.
//
// Scenario rules (see src/sched/scheduler.hpp): shared state in static
// storage (stable addresses => stable orec slots), serial threshold
// raised out of reach (the stop-the-world serial path of TL2/TLEager
// blocks in a std::mutex the scheduler cannot see), and no GLock.
#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "sched/explore.hpp"
#include "sched/schedpoint.hpp"
#include "sched/scheduler.hpp"
#include "tm/config.hpp"
#include "tm/norec.hpp"
#include "tm/quiescence.hpp"
#include "tm/tl2.hpp"
#include "tm/tleager.hpp"
#include "tm/tml.hpp"

namespace {

using hohtm::sched::ExploreResult;
using hohtm::sched::Mutation;
using hohtm::sched::Scenario;
using hohtm::sched::Scheduler;
using hohtm::sched::describe;
using hohtm::sched::depth_multiplier;
using hohtm::sched::explore_dfs;
using hohtm::sched::explore_random;
using hohtm::sched::format_steps;
using hohtm::sched::replay_choices;
using hohtm::sched::set_mutation;

#define REQUIRE_SCHED_BUILD()                                       \
  do {                                                              \
    if constexpr (!hohtm::sched::kSchedBuild)                       \
      GTEST_SKIP() << "needs -DHOHTM_SCHED=ON (scripts/check.sh "   \
                      "--sched)";                                   \
  } while (0)

/// Restores mutation + serial threshold even when an ASSERT bails out.
struct ScenarioGuard {
  ScenarioGuard() { hohtm::tm::Config::set_serial_threshold(1000); }
  ~ScenarioGuard() {
    set_mutation(Mutation::kNone);
    hohtm::tm::Config::set_serial_threshold(8);
  }
};

// ---------------------------------------------------------------------------
// Write-write race: two transactions increment the same word. Any lost
// update is a serializability violation.

template <class TM>
struct CounterState {
  static inline long x = 0;
};

template <class TM>
Scenario counter_scenario() {
  using S = CounterState<TM>;
  Scenario s;
  s.setup = [] { S::x = 0; };
  auto incr = [] {
    TM::atomically([](auto& tx) { tx.write(S::x, tx.read(S::x) + 1); });
  };
  s.bodies = {incr, incr};
  s.check = [] {
    return S::x == 2 ? std::string()
                     : "lost update: x == " + std::to_string(S::x);
  };
  return s;
}

TEST(SchedTm, TmlConcurrentIncrementsNeverLoseUpdates) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const ExploreResult r =
      explore_dfs(counter_scenario<hohtm::tm::Tml>(),
                  20000 * depth_multiplier(), 400);
  EXPECT_FALSE(r.failed) << describe(r);
}

TEST(SchedTm, NorecConcurrentIncrementsNeverLoseUpdates) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const ExploreResult r =
      explore_dfs(counter_scenario<hohtm::tm::Norec>(),
                  20000 * depth_multiplier(), 400);
  EXPECT_FALSE(r.failed) << describe(r);
}

TEST(SchedTm, Tl2ConcurrentIncrementsNeverLoseUpdates) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const ExploreResult r =
      explore_dfs(counter_scenario<hohtm::tm::Tl2>(),
                  20000 * depth_multiplier(), 400);
  EXPECT_FALSE(r.failed) << describe(r);
}

TEST(SchedTm, TlEagerConcurrentIncrementsNeverLoseUpdates) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const ExploreResult r =
      explore_dfs(counter_scenario<hohtm::tm::TlEager>(),
                  20000 * depth_multiplier(), 400);
  EXPECT_FALSE(r.failed) << describe(r);
}

// ---------------------------------------------------------------------------
// Read-validate (opacity) race: a reader sums two words while a writer
// moves value between them; every committed read must see the invariant
// sum. The alignas keeps x and y on different 16-byte granules, i.e.
// different TL2/TLEager orecs — the torn read must be catchable per-word.

template <class TM>
struct InvariantState {
  alignas(64) static inline long x = 60;
  alignas(64) static inline long y = 40;
  static inline long observed = 100;
};

template <class TM>
Scenario invariant_scenario() {
  using S = InvariantState<TM>;
  Scenario s;
  s.setup = [] {
    S::x = 60;
    S::y = 40;
    S::observed = 100;
  };
  s.bodies = {
      [] {
        S::observed = TM::atomically([](auto& tx) {
          const long a = tx.read(S::x);
          const long b = tx.read(S::y);
          return a + b;
        });
      },
      [] {
        TM::atomically([](auto& tx) {
          tx.write(S::x, tx.read(S::x) - 10);
          tx.write(S::y, tx.read(S::y) + 10);
        });
      },
  };
  s.check = [] {
    return S::observed == 100
               ? std::string()
               : "inconsistent snapshot: sum == " + std::to_string(S::observed);
  };
  return s;
}

template <class TM>
void expect_opacity_holds() {
  ScenarioGuard guard;
  const Scenario s = invariant_scenario<TM>();
  const ExploreResult dfs =
      explore_dfs(s, 10000 * depth_multiplier(), 400);
  EXPECT_FALSE(dfs.failed) << TM::name() << ": " << describe(dfs);
  const ExploreResult pct =
      explore_random(s, 0x5eedULL, 300 * depth_multiplier(), 3, 400);
  EXPECT_FALSE(pct.failed) << TM::name() << ": " << describe(pct);
}

/// The explorer must catch a disabled read-validation within its DFS
/// budget, and replaying the recorded choices must reproduce the exact
/// same interleaving — the acceptance bar for the harness itself.
template <class TM>
void expect_mutant_caught() {
  ScenarioGuard guard;
  const Scenario s = invariant_scenario<TM>();
  set_mutation(Mutation::kSkipReadValidation);
  const ExploreResult r = explore_dfs(s, 20000 * depth_multiplier(), 400);
  ASSERT_TRUE(r.failed) << TM::name()
                        << ": mutant survived " << describe(r);
  ASSERT_FALSE(r.failing_choices.empty());
  const ExploreResult again = replay_choices(s, r.failing_choices, 400);
  EXPECT_TRUE(again.failed) << TM::name() << ": " << describe(again);
  EXPECT_EQ(format_steps(again.failing_steps), format_steps(r.failing_steps))
      << TM::name() << ": replay diverged";
}

TEST(SchedTm, TmlOpacityHolds) {
  REQUIRE_SCHED_BUILD();
  expect_opacity_holds<hohtm::tm::Tml>();
}
TEST(SchedTm, NorecOpacityHolds) {
  REQUIRE_SCHED_BUILD();
  expect_opacity_holds<hohtm::tm::Norec>();
}
TEST(SchedTm, Tl2OpacityHolds) {
  REQUIRE_SCHED_BUILD();
  expect_opacity_holds<hohtm::tm::Tl2>();
}
TEST(SchedTm, TlEagerOpacityHolds) {
  REQUIRE_SCHED_BUILD();
  expect_opacity_holds<hohtm::tm::TlEager>();
}

TEST(SchedTm, TmlSkipValidationMutantCaught) {
  REQUIRE_SCHED_BUILD();
  expect_mutant_caught<hohtm::tm::Tml>();
}
TEST(SchedTm, NorecSkipValidationMutantCaught) {
  REQUIRE_SCHED_BUILD();
  expect_mutant_caught<hohtm::tm::Norec>();
}
TEST(SchedTm, Tl2SkipValidationMutantCaught) {
  REQUIRE_SCHED_BUILD();
  expect_mutant_caught<hohtm::tm::Tl2>();
}
TEST(SchedTm, TlEagerSkipValidationMutantCaught) {
  REQUIRE_SCHED_BUILD();
  expect_mutant_caught<hohtm::tm::TlEager>();
}

// ---------------------------------------------------------------------------
// Quiescence fence vs an in-flight reader, at the unit level: the reader
// publishes an old timestamp and enters a critical "zone" (standing in
// for dereferencing soon-to-be-freed memory); the remover's wait_until
// must not return while the reader is still inside.

struct QuiesceState {
  static inline hohtm::tm::Quiescence q;
  static inline bool in_zone = false;
  static inline bool bug = false;
};

Scenario quiesce_scenario() {
  Scenario s;
  s.setup = [] {
    QuiesceState::in_zone = false;
    QuiesceState::bug = false;
  };
  s.bodies = {
      [] {
        QuiesceState::q.publish(5);
        QuiesceState::in_zone = true;
        Scheduler::yield(hohtm::sched::Op::kUserMark);
        QuiesceState::in_zone = false;
        QuiesceState::q.deactivate();
      },
      [] {
        QuiesceState::q.wait_until(10);
        if (QuiesceState::in_zone) QuiesceState::bug = true;
      },
  };
  s.check = [] {
    return QuiesceState::bug
               ? std::string("fence returned while a reader was in the zone")
               : std::string();
  };
  return s;
}

TEST(SchedTm, QuiescenceFenceBlocksUntilReaderLeaves) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const ExploreResult r = explore_dfs(quiesce_scenario(), 5000, 200);
  EXPECT_FALSE(r.failed) << describe(r);
  EXPECT_TRUE(r.exhausted) << describe(r);
}

TEST(SchedTm, QuiescenceSkipWaitMutantCaught) {
  REQUIRE_SCHED_BUILD();
  ScenarioGuard guard;
  const Scenario s = quiesce_scenario();
  set_mutation(Mutation::kSkipQuiescenceWait);
  const ExploreResult r = explore_dfs(s, 5000, 200);
  ASSERT_TRUE(r.failed) << "mutant survived " << describe(r);
  const ExploreResult again = replay_choices(s, r.failing_choices, 200);
  EXPECT_TRUE(again.failed) << describe(again);
  EXPECT_EQ(format_steps(again.failing_steps), format_steps(r.failing_steps));
}

// ---------------------------------------------------------------------------
// Plain reads of immutable node fields (docs/ALGORITHMS.md, "Immutable
// fields are read plainly"), at the structure level: a reader reaches
// node X through a validated tx.read(head.next), is preempted, and then
// reads X->key plainly, as every src/ds/ traversal does. A remover
// unlinks X and deallocates in the same transaction; its deferred free
// runs behind the commit-time quiescence fence. X is static so the key
// stays readable after the "free": the remover deallocates a stand-in
// whose destructor poisons X->key, so the poison lands exactly where X's
// free would. No reader attempt, doomed or not, may see the poison.

struct PlainKeyState {
  struct Node {
    long key;
    Node* next;
  };
  static constexpr long kPoison = -1;
  static inline Node x{20, nullptr};
  static inline Node head{0, &x};
  static inline bool saw_poison = false;
  struct FreeStandIn {
    ~FreeStandIn() { x.key = kPoison; }
  };
};

template <class TM>
Scenario plain_key_scenario() {
  using S = PlainKeyState;
  Scenario s;
  s.setup = [] {
    S::x = {20, nullptr};
    S::head = {0, &S::x};
    S::saw_poison = false;
  };
  s.bodies = {
      [] {
        TM::atomically([](auto& tx) {
          S::Node* n = tx.read(S::head.next);
          Scheduler::yield(hohtm::sched::Op::kUserMark);
          if (n != nullptr && n->key == S::kPoison) S::saw_poison = true;
        });
      },
      [] {
        TM::atomically([](auto& tx) {
          S::Node* victim = tx.read(S::head.next);
          tx.write(S::head.next, tx.read(victim->next));
          tx.dealloc(tx.template alloc<S::FreeStandIn>());
        });
      },
  };
  s.check = [] {
    return S::saw_poison
               ? std::string("a reader read the key of a freed node")
               : std::string();
  };
  return s;
}

template <class TM>
void expect_plain_key_reads_safe() {
  ScenarioGuard guard;
  const ExploreResult r =
      explore_dfs(plain_key_scenario<TM>(), 20000 * depth_multiplier(), 400);
  EXPECT_FALSE(r.failed) << TM::name() << ": " << describe(r);
}

template <class TM>
void expect_plain_key_mutant_caught() {
  ScenarioGuard guard;
  const Scenario s = plain_key_scenario<TM>();
  set_mutation(Mutation::kSkipQuiescenceWait);
  const ExploreResult r = explore_dfs(s, 20000 * depth_multiplier(), 400);
  ASSERT_TRUE(r.failed) << TM::name() << ": mutant survived " << describe(r);
  const ExploreResult again = replay_choices(s, r.failing_choices, 400);
  EXPECT_TRUE(again.failed) << TM::name() << ": " << describe(again);
  EXPECT_EQ(format_steps(again.failing_steps), format_steps(r.failing_steps))
      << TM::name() << ": replay diverged";
}

TEST(SchedTm, NorecPlainKeyReadNeverSeesFreedNode) {
  REQUIRE_SCHED_BUILD();
  expect_plain_key_reads_safe<hohtm::tm::Norec>();
}
TEST(SchedTm, TmlPlainKeyReadNeverSeesFreedNode) {
  REQUIRE_SCHED_BUILD();
  expect_plain_key_reads_safe<hohtm::tm::Tml>();
}
TEST(SchedTm, NorecPlainKeySkipWaitMutantCaught) {
  REQUIRE_SCHED_BUILD();
  expect_plain_key_mutant_caught<hohtm::tm::Norec>();
}
TEST(SchedTm, TmlPlainKeySkipWaitMutantCaught) {
  REQUIRE_SCHED_BUILD();
  expect_plain_key_mutant_caught<hohtm::tm::Tml>();
}

}  // namespace
