#include "tm/txsets.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace hohtm::tm {
namespace {

TEST(WriteSet, FindMissReturnsNull) {
  WriteSet ws;
  int x = 0;
  EXPECT_EQ(ws.find(&x), nullptr);
}

TEST(WriteSet, PutThenFind) {
  WriteSet ws;
  int x = 0;
  ws.put(&x, erase_word(42));
  const ErasedWord* w = ws.find(&x);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(restore_word<int>(*w), 42);
}

TEST(WriteSet, OverwriteKeepsOneEntry) {
  WriteSet ws;
  int x = 0;
  ws.put(&x, erase_word(1));
  ws.put(&x, erase_word(2));
  EXPECT_EQ(ws.size(), 1u);
  EXPECT_EQ(restore_word<int>(*ws.find(&x)), 2);
}

TEST(WriteSet, GrowthPreservesEntries) {
  WriteSet ws;
  constexpr int kCount = 1000;
  static std::uint64_t cells[kCount];
  for (int i = 0; i < kCount; ++i)
    ws.put(&cells[i], erase_word<std::uint64_t>(i * 3));
  EXPECT_EQ(ws.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    const ErasedWord* w = ws.find(&cells[i]);
    ASSERT_NE(w, nullptr) << i;
    EXPECT_EQ(restore_word<std::uint64_t>(*w), static_cast<std::uint64_t>(i * 3));
  }
}

TEST(WriteSet, WriteBackAppliesAllWidths) {
  WriteSet ws;
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  ws.put(&a, erase_word<std::uint8_t>(0x12));
  ws.put(&b, erase_word<std::uint16_t>(0x1234));
  ws.put(&c, erase_word<std::uint32_t>(0x12345678));
  ws.put(&d, erase_word<std::uint64_t>(0x123456789ABCDEF0ULL));
  ws.write_back();
  EXPECT_EQ(a, 0x12);
  EXPECT_EQ(b, 0x1234);
  EXPECT_EQ(c, 0x12345678u);
  EXPECT_EQ(d, 0x123456789ABCDEF0ULL);
}

TEST(WriteSet, ClearKeepsItUsable) {
  WriteSet ws;
  int x = 0;
  ws.put(&x, erase_word(1));
  ws.clear();
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.find(&x), nullptr);
  ws.put(&x, erase_word(9));
  EXPECT_EQ(restore_word<int>(*ws.find(&x)), 9);
}

TEST(WriteSet, ClearAfterGrowthBehavesLikeAFreshSet) {
  // 100 entries grow the index from 16 to 256 slots; clear() then resets
  // only the slots those entries occupy. The cells are scattered over a
  // pool (a stride coprime to its size) so that home slots collide and
  // clear() has to walk probe chains, not just home slots.
  constexpr int kPool = 4099;
  constexpr int kOld = 100;
  constexpr int kNew = 12;
  static std::uint64_t pool[kPool];
  auto old_cell = [](int i) { return &pool[(i * 997) % kPool]; };
  auto new_cell = [](int i) { return &pool[(kOld + i) * 997 % kPool]; };
  WriteSet ws;
  for (int i = 0; i < kOld; ++i)
    ws.put(old_cell(i), erase_word<std::uint64_t>(i + 1));
  ws.clear();
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.size(), 0u);
  for (int i = 0; i < kOld; ++i) EXPECT_EQ(ws.find(old_cell(i)), nullptr) << i;

  // New puts (fresh addresses plus an old one) find exactly what was put,
  // overwrite in place, and write back only the new log.
  for (int i = 0; i < kNew; ++i)
    ws.put(new_cell(i), erase_word<std::uint64_t>(1000 + i));
  ws.put(old_cell(7), erase_word<std::uint64_t>(77));
  ws.put(old_cell(7), erase_word<std::uint64_t>(78));
  EXPECT_EQ(ws.size(), static_cast<std::size_t>(kNew + 1));
  for (int i = 0; i < kNew; ++i)
    EXPECT_EQ(restore_word<std::uint64_t>(*ws.find(new_cell(i))),
              static_cast<std::uint64_t>(1000 + i));
  EXPECT_EQ(restore_word<std::uint64_t>(*ws.find(old_cell(7))), 78u);
  EXPECT_EQ(ws.find(old_cell(8)), nullptr);
  ws.write_back();
  EXPECT_EQ(*old_cell(7), 78u);
  EXPECT_EQ(*old_cell(8), 0u);
  EXPECT_EQ(*new_cell(kNew - 1), static_cast<std::uint64_t>(1000 + kNew - 1));

  // Many fill-and-clear rounds at the index's highest load leave no slot
  // behind: every round starts from a set where nothing is found.
  for (int round = 0; round < 50; ++round) {
    ws.clear();
    for (int i = 0; i < 128; ++i)
      EXPECT_EQ(ws.find(&pool[(round * 131 + i * 997) % kPool]), nullptr)
          << "round " << round << " cell " << i;
    for (int i = 0; i < 128; ++i)
      ws.put(&pool[(round * 131 + i * 997) % kPool],
             erase_word<std::uint64_t>(i));
    ASSERT_EQ(ws.size(), 128u);
  }
}

TEST(WriteSet, ProbesCountFindsOnly) {
  WriteSet ws;
  int x = 0;
  ws.put(&x, erase_word(1));
  EXPECT_EQ(ws.probes(), 0u);
  ws.find(&x);
  ws.find(&ws);
  EXPECT_EQ(ws.probes(), 2u);
  ws.clear();
  EXPECT_EQ(ws.probes(), 2u);  // lifetime count: clear() keeps it
}

struct Logged {
  const void* addr;
  std::uint64_t bits;
};

TEST(ReadLog, AppendsInOrderAcrossGrowth) {
  ReadLog<Logged> log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.capacity(), 0u);  // no storage until the first append
  constexpr std::uint64_t kCount = 1000;
  for (std::uint64_t i = 0; i < kCount; ++i) log.push(Logged{&log, i * 3});
  ASSERT_EQ(log.size(), kCount);
  EXPECT_GE(log.capacity(), kCount);
  std::uint64_t i = 0;
  for (const Logged& e : log) {
    EXPECT_EQ(e.addr, &log);
    EXPECT_EQ(e.bits, i * 3) << i;
    ++i;
  }
  EXPECT_EQ(i, kCount);
}

TEST(ReadLog, ClearKeepsCapacity) {
  ReadLog<std::uintptr_t> log;
  for (std::uintptr_t i = 0; i < 300; ++i) log.push(i);
  const std::size_t capacity = log.capacity();
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.begin(), log.end());
  EXPECT_EQ(log.capacity(), capacity);
  for (std::uintptr_t i = 0; i < 300; ++i) log.push(i + 7);
  EXPECT_EQ(log.capacity(), capacity);  // refilling to the old size: no growth
  EXPECT_EQ(*log.begin(), 7u);
  EXPECT_EQ(*(log.end() - 1), 306u);
}

TEST(PrivateLog, OverwriteFindAndWriteBack) {
  PrivateLog log;
  std::uint8_t a = 0;
  std::uint64_t d = 0;
  int x = 0;
  EXPECT_EQ(log.find(&x), nullptr);
  log.put(&a, erase_word<std::uint8_t>(0x12));
  log.put(&d, erase_word<std::uint64_t>(0x123456789ABCDEF0ULL));
  log.put(&x, erase_word(1));
  log.put(&x, erase_word(2));
  EXPECT_EQ(restore_word<int>(*log.find(&x)), 2);
  EXPECT_EQ(x, 0);  // buffered until write-back
  log.write_back();
  EXPECT_EQ(a, 0x12);
  EXPECT_EQ(d, 0x123456789ABCDEF0ULL);
  EXPECT_EQ(x, 2);
}

TEST(PrivateLog, ClearDropsEveryEntry) {
  PrivateLog log;
  static int cells[20];
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 20; ++i) log.put(&cells[i], erase_word(i + round));
    for (int i = 0; i < 20; ++i)
      EXPECT_EQ(restore_word<int>(*log.find(&cells[i])), i + round);
    log.clear();
    EXPECT_TRUE(log.empty());
    for (int i = 0; i < 20; ++i) EXPECT_EQ(log.find(&cells[i]), nullptr);
  }
  log.write_back();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(cells[i], 0);
}

TEST(UndoLog, RollsBackInReverseOrder) {
  UndoLog undo;
  int x = 0;
  undo.record(&x, erase_word(0));  // before first write
  x = 1;
  undo.record(&x, erase_word(1));  // before second write
  x = 2;
  undo.roll_back();
  EXPECT_EQ(x, 0);
  EXPECT_TRUE(undo.empty());
}

TEST(UndoLog, PointerWidth) {
  UndoLog undo;
  int target = 5;
  int* p = &target;
  int* const original = p;
  undo.record(&p, erase_word(p));
  p = nullptr;
  undo.roll_back();
  EXPECT_EQ(p, original);
}

TEST(LifecycleLog, CommitRunsFreesDropsAllocs) {
  LifecycleLog log;
  static int destroyed;
  destroyed = 0;
  int alloc_token = 0, free_token = 0;
  log.on_abort(&alloc_token, [](void*) noexcept { destroyed += 100; });
  log.on_commit(&free_token, [](void*) noexcept { destroyed += 1; });
  log.commit();
  EXPECT_EQ(destroyed, 1);  // only the deferred free ran
}

TEST(LifecycleLog, AbortUndoesAllocsDropsFrees) {
  LifecycleLog log;
  static int destroyed;
  destroyed = 0;
  int alloc_token = 0, free_token = 0;
  log.on_abort(&alloc_token, [](void*) noexcept { destroyed += 100; });
  log.on_commit(&free_token, [](void*) noexcept { destroyed += 1; });
  log.abort();
  EXPECT_EQ(destroyed, 100);  // only the allocation rollback ran
}

TEST(LifecycleLog, PendingFreesFlag) {
  LifecycleLog log;
  EXPECT_FALSE(log.has_pending_frees());
  int token = 0;
  log.on_commit(&token, [](void*) noexcept {});
  EXPECT_TRUE(log.has_pending_frees());
  log.commit();
  EXPECT_FALSE(log.has_pending_frees());
}

TEST(ErasedWord, RoundTripsNegativeValues) {
  const ErasedWord w = erase_word<int>(-7);
  EXPECT_EQ(restore_word<int>(w), -7);
  const ErasedWord b = erase_word<bool>(true);
  EXPECT_EQ(restore_word<bool>(b), true);
}

}  // namespace
}  // namespace hohtm::tm
