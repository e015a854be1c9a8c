// Serial-irrevocable fallback and user-initiated retry.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "reclaim/gauge.hpp"
#include "tm/tm.hpp"
#include "util/backoff.hpp"
#include "util/barrier.hpp"

namespace hohtm::tm {
namespace {

template <class TM>
class TmSerialTest : public ::testing::Test {
 protected:
  void TearDown() override { Config::set_serial_threshold(8); }
};

using Backends = ::testing::Types<GLock, Tml, Norec, Tl2, TlEager>;
TYPED_TEST_SUITE(TmSerialTest, Backends);

TYPED_TEST(TmSerialTest, ThresholdZeroForcesSerialMode) {
  using TM = TypeParam;
  Config::set_serial_threshold(0);
  static long counter;
  counter = 0;
  const auto before = Stats::total();
  TM::atomically([&](typename TM::Tx& tx) {
    tx.write(counter, tx.read(counter) + 1);
  });
  const auto after = Stats::total();
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(after.serial_commits, before.serial_commits + 1);
  EXPECT_EQ(after.commits, before.commits);
}

TYPED_TEST(TmSerialTest, SerialModeIsStillAtomicUnderConcurrency) {
  using TM = TypeParam;
  Config::set_serial_threshold(0);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 500;
  static long counter;
  counter = 0;
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kIncrements; ++i) {
        TM::atomically([&](typename TM::Tx& tx) {
          tx.write(counter, tx.read(counter) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIncrements);
}

TYPED_TEST(TmSerialTest, MixedSerialAndSpeculativeThreads) {
  using TM = TypeParam;
  // Half the increments run with threshold 0 (serial), half with the
  // normal speculative path; atomicity must hold across the mix.
  // The threshold is global, so flip it from a dedicated thread.
  Config::set_serial_threshold(8);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 400;
  static long counter;
  counter = 0;
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kIncrements; ++i) {
        if (t == 0 && i % 50 == 0)
          Config::set_serial_threshold(i % 100 == 0 ? 0 : 8);
        TM::atomically([&](typename TM::Tx& tx) {
          tx.write(counter, tx.read(counter) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIncrements);
}

TYPED_TEST(TmSerialTest, UserRetryWaitsForCondition) {
  using TM = TypeParam;
  Config::set_serial_threshold(8);
  static long flag;
  static long result;
  flag = 0;
  result = 0;
  // Handshake instead of a sleep: the setter satisfies the condition only
  // after the waiter has observed flag == 0 and committed to retrying, so
  // the retry path is exercised deterministically on any scheduler.
  std::atomic<bool> retried{false};

  std::thread waiter([&] {
    TM::atomically([&](typename TM::Tx& tx) {
      if (tx.read(flag) == 0) {
        retried.store(true, std::memory_order_release);
        retried.notify_all();  // non-transactional: survives the abort
        tx.retry();            // spins until flag is set
      }
      tx.write(result, tx.read(flag) * 2);
    });
  });
  std::thread setter([&] {
    retried.wait(false, std::memory_order_acquire);
    TM::atomically([&](typename TM::Tx& tx) { tx.write(flag, 21L); });
  });
  waiter.join();
  setter.join();
  EXPECT_EQ(result, 42);
}

TYPED_TEST(TmSerialTest, UserRetryCountsInStats) {
  using TM = TypeParam;
  Config::set_serial_threshold(100);  // keep it speculative
  static long flag;
  flag = 0;
  // Handshake instead of a sleep: the setter satisfies the condition only
  // after the waiter has committed to at least one retry, so exactly-zero
  // retries is impossible regardless of scheduling (or sanitizer slowdown).
  std::atomic<bool> retried{false};
  const auto before = Stats::total();
  std::thread setter([&] {
    retried.wait(false, std::memory_order_acquire);
    TM::atomically([&](typename TM::Tx& tx) { tx.write(flag, 1L); });
  });
  TM::atomically([&](typename TM::Tx& tx) {
    if (tx.read(flag) == 0) {
      retried.store(true, std::memory_order_release);
      retried.notify_all();  // non-transactional: survives the abort
      tx.retry();
    }
  });
  setter.join();
  const auto after = Stats::total();
  EXPECT_GT(after.user_retries, before.user_retries);
}

// A serial attempt that publishes an allocation in place and then
// throws: the write is rolled back and the allocation freed.
TYPED_TEST(TmSerialTest, SerialAbortUndoesPublishedAllocation) {
  using TM = TypeParam;
  Config::set_serial_threshold(0);
  static long* published;
  published = nullptr;
  const long long baseline = reclaim::Gauge::live();
  EXPECT_THROW(TM::atomically([&](typename TM::Tx& tx) {
                 tx.write(published, tx.template alloc<long>(7));
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  EXPECT_EQ(published, nullptr);
  EXPECT_EQ(reclaim::Gauge::live(), baseline);
}

// NOrec's serial mode writes in place while other transactions run, so a
// reader between two reads can load a pointer to the serial attempt's
// allocation. An aborted serial attempt must free its allocations only
// after the quiescence fence. Here a reader loads the published pointer
// inside its transaction, the writer throws, and the reader, still
// inside, watches for the free across a window of kWatch loads: the
// fence holds it back until the reader's transaction ends, so it is never
// seen; without the fence it lands at once.
struct Tracked {
  static inline std::atomic<bool> freed{false};
  ~Tracked() { freed.store(true, std::memory_order_release); }
};

TEST(TmSerialNorec, AbortFencesPublishedAllocations) {
  constexpr int kWatch = 1 << 22;
  Config::set_serial_threshold(8);  // the reader runs speculatively
  static Tracked* published;
  static long other;
  published = nullptr;
  other = 0;
  Tracked::freed.store(false);
  // 1: reader inside its transaction; 2: writer published; 3: reader
  // loaded the pointer.
  std::atomic<int> stage{0};
  bool loaded = false;
  bool freed_while_reading = true;
  const auto advance = [&](int to) {
    stage.store(to, std::memory_order_release);
    stage.notify_all();
  };
  std::thread reader([&] {
    Norec::atomically([&](Norec::Tx& tx) {
      (void)tx.read(other);
      advance(1);
      stage.wait(1, std::memory_order_acquire);
      std::atomic_ref<Tracked*> slot(published);
      loaded = slot.load(std::memory_order_acquire) != nullptr;
      advance(3);
      // Rolled back once null again: the writer is in its abort path.
      while (slot.load(std::memory_order_acquire) != nullptr)
        util::cpu_relax();
      bool freed = false;
      for (int i = 0; i < kWatch && !freed; ++i)
        freed = Tracked::freed.load(std::memory_order_acquire);
      freed_while_reading = freed;
    });
  });
  stage.wait(0, std::memory_order_acquire);
  Config::set_serial_threshold(0);  // the writer runs serially
  EXPECT_THROW(Norec::atomically([&](Norec::Tx& tx) {
                 tx.write(published, tx.alloc<Tracked>());
                 advance(2);
                 stage.wait(2, std::memory_order_acquire);
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  reader.join();
  Config::set_serial_threshold(8);
  EXPECT_TRUE(loaded);
  EXPECT_FALSE(freed_while_reading);
  EXPECT_TRUE(Tracked::freed.load());
  EXPECT_EQ(published, nullptr);
}

}  // namespace
}  // namespace hohtm::tm
