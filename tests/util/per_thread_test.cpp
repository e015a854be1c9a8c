#include "util/per_thread.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/multi_rr.hpp"
#include "core/rr_v.hpp"
#include "core/rr_xo.hpp"
#include "tm/norec.hpp"
#include "tm/quiescence.hpp"
#include "util/barrier.hpp"

namespace hohtm::util {
namespace {

// Every cell starts on its own line, whatever the element size.
static_assert(alignof(PerThread<char>) >= kCacheLineSize);
static_assert(sizeof(PerThread<char>) == kMaxThreads * kCacheLineSize);
static_assert(sizeof(PerThread<char[kCacheLineSize + 1]>) ==
              kMaxThreads * 2 * kCacheLineSize);
static_assert(sizeof(decltype(std::declval<PerThread<char>&>().live())::
                         element_type) >= kCacheLineSize);

// Default construction is a constant expression, so a static instance is
// constant-initialized (usable from other TUs' static initializers).
static_assert([] {
  PerThread<long> cells;
  (void)cells;
  return true;
}());
constinit PerThread<std::atomic<long>> g_cells;

// The holders built on PerThread keep the raw padded arrays' layout.
static_assert(sizeof(rr::RrV<tm::Norec>) == 8256);
static_assert(sizeof(rr::MultiRrV<tm::Norec>) == 8256);
static_assert(sizeof(rr::RrXo<tm::Norec>) == 8256);
static_assert(sizeof(tm::Quiescence) == kMaxThreads * kCacheLineSize);

TEST(PerThread, MineDiffersPerThread) {
  constexpr int kThreads = 6;
  static PerThread<long> cells;
  std::mutex mu;
  std::set<long*> seen;
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      long* mine = &cells.mine();
      EXPECT_EQ(mine, &cells.live()[ThreadRegistry::slot()].value);
      {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(mine);
      }
      barrier.arrive_and_wait();  // all live at once: no slot reuse
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads));
}

TEST(PerThread, LiveRangeSpansTheWatermark) {
  static PerThread<long> cells;
  EXPECT_EQ(cells.live().size(), ThreadRegistry::high_watermark());
  EXPECT_GT(cells.live().size(), ThreadRegistry::slot());
  const PerThread<long>& view = cells;
  EXPECT_EQ(view.live().size(), ThreadRegistry::high_watermark());
  EXPECT_EQ(&view.mine(), &cells.mine());
}

TEST(PerThread, ExitedThreadsCellIsStillSummedAndInherited) {
  const auto sum = [] {
    long total = 0;
    for (const auto& cell : g_cells.live()) total += cell->load();
    return total;
  };
  const long before = sum();
  std::size_t first_slot = 0;
  std::thread([&] {
    first_slot = ThreadRegistry::slot();
    g_cells.mine() += 5;
  }).join();
  EXPECT_EQ(sum(), before + 5);  // the writer is gone, its count is not

  // Nothing else registers meanwhile, so the next thread takes the lowest
  // free slot: the one just released. It adds to the same cell.
  std::thread([&] {
    EXPECT_EQ(ThreadRegistry::slot(), first_slot);
    g_cells.mine() += 3;
  }).join();
  EXPECT_EQ(sum(), before + 8);
}

}  // namespace
}  // namespace hohtm::util
