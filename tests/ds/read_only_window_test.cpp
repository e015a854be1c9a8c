// The read-only-window gate: a hand-over-hand lookup that spans several
// windows commits every window as a reader. RR-V's Reserve/Release/Get
// touch only the caller's owner-private cell (tm::PrivateCell), so a
// window that merely moves its reservation must not advance the backend's
// global commit clock (NOrec/TML seqlock, TL2/TLEager version clock), and
// it must still commit exactly once per window: the saving is in writer
// commits, not in commits. Plus the read-set gate: node keys are
// immutable after publication and read plainly (docs/ALGORITHMS.md), so
// a window logs one word per node it walks, not two. And the write-set
// gate: a transaction that has not written skips the read-after-write
// probe, while one that has still reads its own buffered writes.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rr_v.hpp"
#include "ds/sll_hoh.hpp"
#include "tm/tm.hpp"

namespace hohtm::ds {
namespace {

constexpr int kWindow = 4;
constexpr long kKeys = 64;  // keys 0, 2, ..., 126

/// Transactions a lookup takes when `smaller` keys precede its target:
/// the first window walks kWindow nodes from the head, every later one
/// resumes from its parked node and walks kWindow more, so each window
/// after the first covers kWindow + 1 nodes.
std::uint64_t windows_for(long smaller) {
  return static_cast<std::uint64_t>((smaller + kWindow + 1) / (kWindow + 1));
}

template <class TM>
class ReadOnlyWindowTest : public ::testing::Test {};

using ClockedBackends = ::testing::Types<tm::Norec, tm::Tl2, tm::Tml,
                                         tm::TlEager>;
TYPED_TEST_SUITE(ReadOnlyWindowTest, ClockedBackends);

TYPED_TEST(ReadOnlyWindowTest, MultiWindowContainsAdvancesNoClock) {
  using TM = TypeParam;
  SllHoh<TM, rr::RrV<TM>> list(kWindow, /*scatter=*/false);
  for (long i = 0; i < kKeys; ++i) ASSERT_TRUE(list.insert(2 * i));

  const tm::StatCounters before = tm::Stats::mine();
  const std::uint64_t clock = TM::commit_clock();
  EXPECT_TRUE(list.contains(2 * (kKeys - 1)));  // last node
  EXPECT_TRUE(list.contains(60));               // middle
  EXPECT_FALSE(list.contains(61));              // miss between nodes
  EXPECT_FALSE(list.contains(2 * kKeys + 1));   // past the tail
  EXPECT_EQ(TM::commit_clock(), clock)
      << "a read-only hand-over-hand window committed as a writer";

  const tm::StatCounters& after = tm::Stats::mine();
  const std::uint64_t expected_commits =
      windows_for(kKeys - 1) + windows_for(30) + windows_for(31) +
      windows_for(kKeys);
  ASSERT_GT(windows_for(kKeys - 1), 1u) << "lookups must span windows";
  EXPECT_EQ(after.commits - before.commits, expected_commits);
  EXPECT_EQ(after.aborts, before.aborts);

  // Not vacuous: an update commits as a writer and moves the clock.
  ASSERT_TRUE(list.remove(60));
  EXPECT_NE(TM::commit_clock(), clock);
}

TEST(ReadSetGate, NorecWindowLogsOneWordPerNode) {
  constexpr int kW = 16;
  constexpr std::size_t kSlack = 4;
  SllHoh<tm::Norec, rr::RrV<tm::Norec>> list(kW, /*scatter=*/false);
  for (long i = 0; i < 4 * kW; ++i) ASSERT_TRUE(list.insert(i));

  // The hook runs right after each window boundary commits, when the
  // thread's NOrec descriptor still holds that window's read log.
  std::vector<std::size_t> logged;
  list.set_handover_hook_for_testing(
      [&] { logged.push_back(tm::Norec::tls_tx().logged_reads()); });
  EXPECT_TRUE(list.contains(4 * kW - 1));
  ASSERT_GE(logged.size(), 2u) << "the lookup must cross window boundaries";
  for (const std::size_t words : logged) {
    EXPECT_GE(words, static_cast<std::size_t>(kW));  // each `next` is logged
    EXPECT_LE(words, kW + kSlack) << "a node's key entered the read set";
  }
}

TEST(ReadSetGate, ReadOnlyWindowMakesNoWriteSetProbes) {
  constexpr int kW = 16;
  SllHoh<tm::Norec, rr::RrV<tm::Norec>> list(kW, /*scatter=*/false);
  for (long i = 0; i < 4 * kW; ++i) ASSERT_TRUE(list.insert(i));

  std::size_t boundaries = 0;
  list.set_handover_hook_for_testing([&] { ++boundaries; });
  const std::uint64_t before = tm::Norec::tls_tx().write_set_probes();
  EXPECT_TRUE(list.contains(4 * kW - 1));  // last node
  EXPECT_FALSE(list.contains(4 * kW));     // past the tail
  ASSERT_GE(boundaries, 4u) << "the lookups must cross window boundaries";
  EXPECT_EQ(tm::Norec::tls_tx().write_set_probes(), before)
      << "a read-only window probed the write set";

  // Not vacuous: once a transaction has written, each read probes.
  long cell = 0;
  tm::Norec::atomically([&](tm::Norec::Tx& tx) {
    tx.write(cell, 1L);
    return tx.read(cell) + tx.read(cell);
  });
  EXPECT_EQ(tm::Norec::tls_tx().write_set_probes(), before + 2);
}

template <class TM, class W>
struct RawCase {
  using Tm = TM;
  using Word = W;
};

template <class Case>
class ReadAfterWriteTest : public ::testing::Test {};

using RawCases = ::testing::Types<
    RawCase<tm::Norec, std::uint8_t>, RawCase<tm::Norec, std::uint16_t>,
    RawCase<tm::Norec, std::uint32_t>, RawCase<tm::Norec, std::uint64_t>,
    RawCase<tm::Tl2, std::uint8_t>, RawCase<tm::Tl2, std::uint16_t>,
    RawCase<tm::Tl2, std::uint32_t>, RawCase<tm::Tl2, std::uint64_t>>;
TYPED_TEST_SUITE(ReadAfterWriteTest, RawCases);

/// A value that fills every byte of the word, so a read at the wrong
/// width or a truncated buffer shows.
template <class W>
W pattern(std::uint64_t seed) {
  return static_cast<W>(0x8182838485868788ULL ^
                        (seed * 0x0101010101010101ULL));
}

TYPED_TEST(ReadAfterWriteTest, FirstReadAfterFirstWrite) {
  using TM = typename TypeParam::Tm;
  using W = typename TypeParam::Word;
  W a = pattern<W>(1);
  W b = pattern<W>(2);
  W seen_before = 0, seen_after = 0, other = 0;
  TM::atomically([&](typename TM::Tx& tx) {
    seen_before = tx.read(a);  // empty write set: read-only path
    tx.write(a, pattern<W>(3));
    seen_after = tx.read(a);  // the first read after the first write
    other = tx.read(b);       // a miss falls through to memory
  });
  EXPECT_EQ(seen_before, pattern<W>(1));
  EXPECT_EQ(seen_after, pattern<W>(3));
  EXPECT_EQ(other, pattern<W>(2));
  EXPECT_EQ(a, pattern<W>(3));
  EXPECT_EQ(b, pattern<W>(2));
}

TYPED_TEST(ReadAfterWriteTest, ReadAfterWriteSetGrowsPastItsIndex) {
  using TM = typename TypeParam::Tm;
  using W = typename TypeParam::Word;
  constexpr int kWords = 64;  // the index starts at 16 slots
  std::vector<W> words(kWords + 1, W{0});
  std::vector<W> seen(kWords + 1, W{0});
  TM::atomically([&](typename TM::Tx& tx) {
    for (int i = 0; i < kWords; ++i) tx.write(words[i], pattern<W>(i + 1));
    for (int i = 0; i <= kWords; ++i) seen[i] = tx.read(words[i]);
  });
  for (int i = 0; i < kWords; ++i) {
    EXPECT_EQ(seen[i], pattern<W>(i + 1)) << i;
    EXPECT_EQ(words[i], pattern<W>(i + 1)) << i;
  }
  EXPECT_EQ(seen[kWords], W{0}) << "an unwritten word read a buffered value";
}

TYPED_TEST(ReadAfterWriteTest, ReadOfOverwrittenWordSeesTheLastWrite) {
  using TM = typename TypeParam::Tm;
  using W = typename TypeParam::Word;
  W x = pattern<W>(5);
  W first = 0, last = 0;
  TM::atomically([&](typename TM::Tx& tx) {
    tx.write(x, pattern<W>(6));
    first = tx.read(x);
    tx.write(x, pattern<W>(7));
    last = tx.read(x);
  });
  EXPECT_EQ(first, pattern<W>(6));
  EXPECT_EQ(last, pattern<W>(7));
  EXPECT_EQ(x, pattern<W>(7));
}

}  // namespace
}  // namespace hohtm::ds
