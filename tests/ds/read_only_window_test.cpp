// The read-only-window gate: a hand-over-hand lookup that spans several
// windows commits every window as a reader. RR-V's Reserve/Release/Get
// touch only the caller's owner-private cell (tm::PrivateCell), so a
// window that merely moves its reservation must not advance the backend's
// global commit clock (NOrec/TML seqlock, TL2/TLEager version clock), and
// it must still commit exactly once per window: the saving is in writer
// commits, not in commits.
#include <gtest/gtest.h>

#include <cstdint>

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

}  // namespace
}  // namespace hohtm::ds
