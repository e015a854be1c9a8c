// Thread-caching pool allocator: routing, reuse, cross-thread frees, and
// backend-switch safety.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "alloc/object.hpp"
#include "alloc/pool.hpp"
#include "reclaim/gauge.hpp"
#include "tm/tm.hpp"
#include "util/barrier.hpp"

namespace hohtm::alloc {
namespace {

class PoolTest : public ::testing::Test {
 protected:
  void TearDown() override { use_pool(false); }
};

TEST_F(PoolTest, MallocBackendRoundTrip) {
  use_pool(false);
  void* p = allocate(100);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 100);
  deallocate(p);
}

TEST_F(PoolTest, PoolBackendRoundTrip) {
  use_pool(true);
  void* p = allocate(100);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xCD, 100);
  deallocate(p);
}

TEST_F(PoolTest, PoolReusesFreedBlocks) {
  use_pool(true);
  void* first = allocate(64);
  deallocate(first);
  void* second = allocate(64);
  EXPECT_EQ(first, second) << "LIFO free list should hand back the block";
  deallocate(second);
}

TEST_F(PoolTest, DistinctLiveBlocks) {
  use_pool(true);
  std::set<void*> seen;
  std::vector<void*> blocks;
  for (int i = 0; i < 1000; ++i) {
    void* p = allocate(48);
    EXPECT_TRUE(seen.insert(p).second) << "live blocks must not alias";
    blocks.push_back(p);
  }
  for (void* p : blocks) deallocate(p);
}

TEST_F(PoolTest, LargeAllocationsFallBackToMalloc) {
  use_pool(true);
  void* p = allocate(1 << 20);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 1 << 20);
  deallocate(p);
}

TEST_F(PoolTest, SwitchMidstreamFreesCorrectly) {
  // Blocks must be freed by the backend that made them even if the
  // global switch has changed since.
  use_pool(false);
  void* from_malloc = allocate(64);
  use_pool(true);
  void* from_pool = allocate(64);
  use_pool(false);
  deallocate(from_pool);    // header says pool
  deallocate(from_malloc);  // header says malloc
}

TEST_F(PoolTest, CrossThreadFreeReturnsToOwner) {
  use_pool(true);
  void* p = allocate(64);
  std::thread other([&] { deallocate(p); });
  other.join();
  // The block sits in this thread's remote stack; the next local miss
  // reclaims it.
  const auto before = pool_stats();
  std::vector<void*> drained;
  void* q = nullptr;
  for (int i = 0; i < 20000 && q != p; ++i) {
    q = allocate(64);
    drained.push_back(q);
  }
  EXPECT_EQ(q, p) << "remote-freed block should come back to the owner";
  const auto after = pool_stats();
  EXPECT_GT(after.remote_reclaims, before.remote_reclaims);
  for (void* d : drained) deallocate(d);
}

TEST_F(PoolTest, ParallelChurnNoCorruption) {
  use_pool(true);
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      barrier.arrive_and_wait();
      std::vector<std::pair<unsigned char*, unsigned char>> mine;
      for (int i = 0; i < kIters; ++i) {
        auto* p = static_cast<unsigned char*>(allocate(40));
        const auto stamp = static_cast<unsigned char>((t * 31 + i) & 0xFF);
        std::memset(p, stamp, 40);
        mine.emplace_back(p, stamp);
        if (mine.size() > 16) {
          auto [q, s] = mine.front();
          mine.erase(mine.begin());
          for (int b = 0; b < 40; ++b)
            ASSERT_EQ(q[b], s) << "block content trampled";
          deallocate(q);
        }
      }
      for (auto [q, s] : mine) deallocate(q);
    });
  }
  for (auto& th : threads) th.join();
}

TEST_F(PoolTest, TypedCreateDestroy) {
  use_pool(true);
  struct Widget {
    int a;
    double b;
    Widget(int x, double y) : a(x), b(y) {}
  };
  Widget* w = create<Widget>(3, 2.5);
  EXPECT_EQ(w->a, 3);
  EXPECT_EQ(w->b, 2.5);
  destroy(w);
}

// Cache-line padded types (the RR thread nodes) must land on their own
// alignment from both backends, whatever offset the 16-aligned block
// happens to start at, and free back to an exact footprint.
TEST_F(PoolTest, OverAlignedCreateHonoursAlignment) {
  struct alignas(64) Padded {
    long tag;
    explicit Padded(long t) : tag(t) {}
  };
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % alignof(Padded) == 0;
  };
  for (const bool pool : {false, true}) {
    SCOPED_TRACE(pool ? "pool" : "malloc");
    use_pool(pool);
    std::vector<Padded*> made;
    for (long i = 0; i < 16; ++i) {
      made.push_back(create<Padded>(i));
      made.push_back(create_flex<Padded>(24, -i));
    }
    for (std::size_t i = 0; i < made.size(); ++i) {
      EXPECT_TRUE(aligned(made[i]));
      EXPECT_EQ(made[i]->tag, i % 2 == 0 ? long(i / 2) : -long(i / 2));
    }
    for (Padded* p : made) destroy(p);

    const auto live_before = reclaim::Gauge::live();
    std::vector<Padded*> tx_made;
    for (long i = 0; i < 16; ++i)
      tx_made.push_back(tm::Norec::atomically(
          [&](tm::Norec::Tx& tx) { return tx.alloc<Padded>(i); }));
    EXPECT_EQ(reclaim::Gauge::live(), live_before + 16);
    for (Padded* p : tx_made) {
      EXPECT_TRUE(aligned(p));
      tm::Norec::atomically([&](tm::Norec::Tx& tx) { tx.dealloc(p); });
    }
    EXPECT_EQ(reclaim::Gauge::live(), live_before);
  }
}

TEST_F(PoolTest, BackendNameReflectsSwitch) {
  use_pool(false);
  EXPECT_STREQ(backend_name(), "malloc");
  use_pool(true);
  EXPECT_STREQ(backend_name(), "pool");
}

}  // namespace
}  // namespace hohtm::alloc
