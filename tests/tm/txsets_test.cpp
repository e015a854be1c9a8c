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
