// The read-only-window gate: a hand-over-hand lookup that spans several
// windows commits every window as a reader. RR-V's Reserve/Release/Get
// touch only the caller's owner-private cell (tm::PrivateCell), so a
// window that merely moves its reservation must not advance the backend's
// global commit clock (NOrec/TML seqlock, TL2/TLEager version clock), and
// it must still commit exactly once per window: the saving is in writer
// commits, not in commits. Plus the read-set gate: node keys are
// immutable after publication and read plainly (docs/ALGORITHMS.md), so
// a window logs one word per node it walks, not two.
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

}  // namespace
}  // namespace hohtm::ds
