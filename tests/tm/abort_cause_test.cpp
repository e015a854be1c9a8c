// Abort-cause taxonomy (tm::AbortCause): every backend must attribute a
// forced conflict to the right per-cause counter, not just bump the
// total. The choreographies use explicit phase handshakes, so each test
// forces exactly the conflict it claims to.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "harness/metrics.hpp"
#include "tm/tm.hpp"

namespace hohtm::tm {
namespace {

/// Restore the serial threshold on scope exit; these tests tune it to
/// keep forced conflicts out of (or deterministically in) serial mode.
struct ThresholdGuard {
  std::uint32_t saved = Config::serial_threshold();
  ~ThresholdGuard() { Config::set_serial_threshold(saved); }
};

StatCounters snapshot() { return Stats::mine(); }

std::uint64_t delta(const StatCounters& before, AbortCause cause) {
  return Stats::mine().cause(cause) - before.cause(cause);
}

template <class TM>
class AbortCauseTest : public ::testing::Test {};

// Futex-wait until `phase` reaches `target`: precise wakeups instead of a
// yield loop, which on the single-core CI box would starve the peer the
// handshake is waiting on (and trips the hohtm-lint no-sleep-sync rule).
void await_phase(const std::atomic<int>& phase, int target) {
  for (int seen = phase.load(std::memory_order_acquire); seen < target;
       seen = phase.load(std::memory_order_acquire))
    phase.wait(seen, std::memory_order_acquire);
}

void advance_phase(std::atomic<int>& phase, int to) {
  phase.store(to, std::memory_order_release);
  phase.notify_all();
}

using ConcurrentBackends = ::testing::Types<Tml, Norec, Tl2, TlEager>;
TYPED_TEST_SUITE(AbortCauseTest, ConcurrentBackends);

// A reader that observes a concurrent committed write between two reads
// of the same location aborts exactly once, attributed to read
// validation (clock check in TML, value validation in NOrec, orec
// version in TL2/TLEager).
TYPED_TEST(AbortCauseTest, ConcurrentWriteIsReadValidationFailure) {
  using TM = TypeParam;
  using Tx = typename TM::Tx;
  ThresholdGuard guard;
  Config::set_serial_threshold(64);

  long loc = 0;
  std::atomic<int> phase{0};
  std::thread writer([&] {
    await_phase(phase, 1);
    TM::atomically([&](Tx& tx) { tx.write(loc, 1L); });
    advance_phase(phase, 2);
  });

  const StatCounters before = snapshot();
  int attempts = 0;
  TM::atomically([&](Tx& tx) {
    (void)tx.read(loc);
    if (attempts++ == 0) {  // only the first attempt waits for the writer
      advance_phase(phase, 1);
      await_phase(phase, 2);
    }
    (void)tx.read(loc);
  });
  writer.join();

  EXPECT_EQ(delta(before, AbortCause::kReadValidation), 1u);
  EXPECT_EQ(delta(before, AbortCause::kLockConflict), 0u);
  EXPECT_EQ(Stats::mine().aborts - before.aborts, 1u);
}

// The retry budget runs out after `serial_threshold` aborts: the
// escalation itself is a recorded cause, distinct from the user aborts
// that exhausted the budget.
TYPED_TEST(AbortCauseTest, EscalationToSerialIsRecorded) {
  using TM = TypeParam;
  using Tx = typename TM::Tx;
  ThresholdGuard guard;
  Config::set_serial_threshold(2);

  const StatCounters before = snapshot();
  int attempts = 0;
  TM::atomically([&](Tx& tx) {
    if (attempts++ < 3) tx.retry();  // 2 speculative attempts + 1 serial
  });

  EXPECT_EQ(delta(before, AbortCause::kSerialEscalation), 1u);
  EXPECT_EQ(delta(before, AbortCause::kUserAbort), 3u);
  EXPECT_EQ(Stats::mine().user_retries - before.user_retries, 3u);
  EXPECT_EQ(Stats::mine().serial_commits - before.serial_commits, 1u);
}

// TML attributes a failed writer upgrade (seqlock moved since the
// snapshot) to lock conflict, not read validation.
TEST(AbortCauseTml, StaleWriterUpgradeIsLockConflict) {
  using TM = Tml;
  ThresholdGuard guard;
  Config::set_serial_threshold(64);

  long loc = 0;
  std::atomic<int> phase{0};
  std::thread writer([&] {
    await_phase(phase, 1);
    TM::atomically([&](TM::Tx& tx) { tx.write(loc, 1L); });
    advance_phase(phase, 2);
  });

  const StatCounters before = snapshot();
  int attempts = 0;
  long unrelated = 0;
  TM::atomically([&](TM::Tx& tx) {
    (void)tx.read(unrelated);  // pin the snapshot without touching loc
    if (attempts++ == 0) {
      advance_phase(phase, 1);
      await_phase(phase, 2);
    }
    tx.write(unrelated, 2L);  // upgrade fails: clock moved under us
  });
  writer.join();

  EXPECT_EQ(delta(before, AbortCause::kLockConflict), 1u);
}

// TLEager writers lock orecs at the access, so a second writer of a
// locked location dies immediately with a lock conflict — the immediacy
// the backend exists to model.
TEST(AbortCauseTlEager, LockedOrecIsLockConflict) {
  using TM = TlEager;
  ThresholdGuard guard;
  Config::set_serial_threshold(64);

  long loc = 0;
  std::atomic<int> phase{0};
  std::thread holder([&] {
    TM::atomically([&](TM::Tx& tx) {
      tx.write(loc, 1L);  // eager acquire: orec now locked
      advance_phase(phase, 1);
      await_phase(phase, 2);
    });
  });
  await_phase(phase, 1);

  const StatCounters before = snapshot();
  int attempts = 0;
  TM::atomically([&](TM::Tx& tx) {
    if (attempts++ > 0) advance_phase(phase, 2);  // first abort releases the holder
    tx.write(loc, 2L);
  });
  holder.join();

  EXPECT_GE(delta(before, AbortCause::kLockConflict), 1u);
}

// GLock cannot conflict; its only abort source is an explicit user
// retry, and that is exactly what its counters must say.
TEST(AbortCauseGLock, UserRetryIsTheOnlyAbort) {
  const StatCounters before = snapshot();
  int attempts = 0;
  GLock::atomically([&](GLock::Tx& tx) {
    if (attempts++ == 0) tx.retry();
  });

  EXPECT_EQ(delta(before, AbortCause::kUserAbort), 1u);
  EXPECT_EQ(Stats::mine().aborts - before.aborts, 1u);
  EXPECT_EQ(delta(before, AbortCause::kReadValidation), 0u);
  EXPECT_EQ(delta(before, AbortCause::kLockConflict), 0u);
}

// NOrec's read barrier validates only when the clock has moved since the
// snapshot: a concurrent commit to an unrelated word between two reads
// costs the second read exactly one revalidation, which passes (no
// abort), and a read-only transaction over a still clock costs none. The
// count reaches the metrics snapshot's tm section.
TEST(NorecValidation, OnlyAMovedClockRevalidates) {
  long x = 1, y = 2, unrelated = 0;
  std::atomic<int> phase{0};
  std::thread writer([&] {
    await_phase(phase, 1);
    Norec::atomically([&](Norec::Tx& tx) { tx.write(unrelated, 1L); });
    advance_phase(phase, 2);
  });

  const StatCounters before = snapshot();
  long sum = Norec::atomically([&](Norec::Tx& tx) {
    const long first = tx.read(x);
    advance_phase(phase, 1);
    await_phase(phase, 2);
    return first + tx.read(y);  // the clock moved: slow path
  });
  writer.join();
  EXPECT_EQ(sum, 3);
  EXPECT_EQ(Stats::mine().validations - before.validations, 1u);
  EXPECT_EQ(Stats::mine().aborts - before.aborts, 0u);

  const StatCounters quiet = snapshot();
  sum = Norec::atomically(
      [&](Norec::Tx& tx) { return tx.read(x) + tx.read(y); });
  EXPECT_EQ(sum, 3);
  EXPECT_EQ(Stats::mine().validations - quiet.validations, 0u);

  const std::string doc = harness::metrics_snapshot_json();
  EXPECT_NE(doc.find("\"validations\":" +
                     std::to_string(Stats::total().validations)),
            std::string::npos)
      << doc;
}

// The aggregate view sums per-thread slots, including exited threads'.
TEST(AbortCauseStats, TotalAggregatesAcrossThreads) {
  const StatCounters before = Stats::total();
  std::thread worker([] {
    int attempts = 0;
    Norec::atomically([&](Norec::Tx& tx) {
      if (attempts++ == 0) tx.retry();
    });
  });
  worker.join();
  const StatCounters after = Stats::total();
  EXPECT_GE(after.cause(AbortCause::kUserAbort) -
                before.cause(AbortCause::kUserAbort),
            1u);
  EXPECT_GE(after.commits - before.commits, 1u);
}

}  // namespace
}  // namespace hohtm::tm
