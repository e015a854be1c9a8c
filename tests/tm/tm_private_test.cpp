// The owner-private access path (tx.read_private / tx.write_private on a
// tm::PrivateCell) on every backend: read-after-write inside one
// transaction, write-back only on commit, discard on every way an attempt
// can end without committing, and one buffer shared by flattened nesting.
// Owner-only access is a compile-time property: a cell exists only inside
// a PrivateSlots holder, which hands out nothing but the caller's own.
#include <gtest/gtest.h>

#include <concepts>
#include <cstddef>
#include <stdexcept>

#include "tm/tm.hpp"

namespace hohtm::tm {
namespace {

static_assert(!std::default_initializable<PrivateCell<long>>);
static_assert(!std::default_initializable<OwnerKey>);
static_assert(!std::copy_constructible<PrivateCell<long>>);

template <class Holder>
concept ReachesBySlot =
    requires(Holder& h, std::size_t slot) { h[slot]; } ||
    requires(Holder& h) { h.live(); } ||
    requires(Holder& h, std::size_t slot) { h.at(slot); };
static_assert(!ReachesBySlot<PrivateSlots<PrivateCell<long>>>);
static_assert(ReachesBySlot<util::PerThread<long>>);  // the probe works

template <class Tx>
concept SharedReadAccepts = requires(Tx& tx, PrivateCell<long>& cell) {
  tx.read(cell);
};
template <class Tx>
concept SharedWriteAccepts = requires(Tx& tx, PrivateCell<long>& cell) {
  tx.write(cell, cell);
};

template <class TM>
class TmPrivateTest : public ::testing::Test {};

using Backends = ::testing::Types<GLock, Tml, Norec, Tl2, TlEager>;
TYPED_TEST_SUITE(TmPrivateTest, Backends);

template <class TM>
long committed(PrivateCell<long>& cell) {
  return TM::atomically(
      [&](typename TM::Tx& tx) { return tx.read_private(cell); });
}

TYPED_TEST(TmPrivateTest, SharedAccessorsRejectPrivateCells) {
  using Tx = typename TypeParam::Tx;
  static_assert(!SharedReadAccepts<Tx>);
  static_assert(!SharedWriteAccepts<Tx>);
}

TYPED_TEST(TmPrivateTest, ReadAfterWriteSeesBufferedValue) {
  using TM = TypeParam;
  static PrivateSlots<PrivateCell<long>> cells;
  PrivateCell<long>& cell = cells.mine();
  TM::atomically([&](typename TM::Tx& tx) {
    EXPECT_EQ(tx.read_private(cell), 0);
    tx.write_private(cell, 7L);
    EXPECT_EQ(tx.read_private(cell), 7);
    tx.write_private(cell, 8L);
    EXPECT_EQ(tx.read_private(cell), 8);
  });
  EXPECT_EQ(committed<TM>(cell), 8);
}

TYPED_TEST(TmPrivateTest, VisibleAfterCommit) {
  using TM = TypeParam;
  static PrivateSlots<PrivateCell<long>> cells;
  PrivateCell<long>& cell = cells.mine();
  static long shared = 0;
  TM::atomically([&](typename TM::Tx& tx) {
    tx.write_private(cell, 42L);
    tx.write(shared, 1L);
  });
  EXPECT_EQ(committed<TM>(cell), 42);
  TM::atomically(
      [&](typename TM::Tx& tx) { tx.write_private(cell, 43L); });
  EXPECT_EQ(committed<TM>(cell), 43);
}

TYPED_TEST(TmPrivateTest, DiscardedOnConflictAbort) {
  using TM = TypeParam;
  static PrivateSlots<PrivateCell<long>> cells;
  PrivateCell<long>& cell = cells.mine();
  int attempts = 0;
  long seen_on_retry = -1;
  TM::atomically([&](typename TM::Tx& tx) {
    if (attempts++ == 0) {
      tx.write_private(cell, 5L);
      abort_tx(AbortCause::kReadValidation);
    }
    seen_on_retry = tx.read_private(cell);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(seen_on_retry, 0);
  EXPECT_EQ(committed<TM>(cell), 0);
}

TYPED_TEST(TmPrivateTest, DiscardedOnUserException) {
  using TM = TypeParam;
  static PrivateSlots<PrivateCell<long>> cells;
  PrivateCell<long>& cell = cells.mine();
  TM::atomically([&](typename TM::Tx& tx) { tx.write_private(cell, 1L); });
  EXPECT_THROW(TM::atomically([&](typename TM::Tx& tx) {
                 tx.write_private(cell, 2L);
                 throw std::runtime_error("user abort");
               }),
               std::runtime_error);
  EXPECT_EQ(committed<TM>(cell), 1);
}

TYPED_TEST(TmPrivateTest, DiscardedOnSerialRetry) {
  using TM = TypeParam;
  static PrivateSlots<PrivateCell<long>> cells;
  PrivateCell<long>& cell = cells.mine();
  int attempts = 0;
  long seen_on_retry = -1;
  TM::run_serial([&](typename TM::Tx& tx) {
    if (attempts++ == 0) {
      tx.write_private(cell, 9L);
      tx.retry();
    }
    seen_on_retry = tx.read_private(cell);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(seen_on_retry, 0);
  EXPECT_EQ(committed<TM>(cell), 0);
}

TYPED_TEST(TmPrivateTest, SerialCommitWritesBack) {
  using TM = TypeParam;
  static PrivateSlots<PrivateCell<long>> cells;
  PrivateCell<long>& cell = cells.mine();
  TM::run_serial([&](typename TM::Tx& tx) { tx.write_private(cell, 3L); });
  EXPECT_EQ(committed<TM>(cell), 3);
}

TYPED_TEST(TmPrivateTest, FlattenedNestingSharesTheBuffer) {
  using TM = TypeParam;
  static PrivateSlots<PrivateCell<long>> cells;
  PrivateCell<long>& cell = cells.mine();
  TM::atomically([&](typename TM::Tx& tx) {
    tx.write_private(cell, 10L);
    TM::atomically([&](typename TM::Tx& inner) {
      EXPECT_EQ(&inner, &tx);
      EXPECT_EQ(inner.read_private(cell), 10);
      inner.write_private(cell, 11L);
    });
    EXPECT_EQ(tx.read_private(cell), 11);
  });
  EXPECT_EQ(committed<TM>(cell), 11);

  // An exception escaping the outer body drops the inner write too.
  EXPECT_THROW(TM::atomically([&](typename TM::Tx&) {
                 TM::atomically([&](typename TM::Tx& inner) {
                   inner.write_private(cell, 12L);
                 });
                 throw std::runtime_error("outer abort");
               }),
               std::runtime_error);
  EXPECT_EQ(committed<TM>(cell), 11);
}

}  // namespace
}  // namespace hohtm::tm
