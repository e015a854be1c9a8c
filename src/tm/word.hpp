#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "sched/schedpoint.hpp"
#include "util/per_thread.hpp"

namespace hohtm::tm {

/// Transactional locations must be word-sized (or smaller), trivially
/// copyable, copy-constructible objects: pointers, integers, bools, enums.
/// Larger objects are accessed field-by-field, exactly as in the paper's
/// node-based structures. (Copy-constructible keeps the deliberately
/// non-copyable PrivateCell out; GCC counts deleted copies as trivial.)
template <class T>
concept TxWord = std::is_trivially_copyable_v<T> &&
                 std::is_copy_constructible_v<T> && sizeof(T) <= 8 &&
                 (sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
                  sizeof(T) == 8);

template <class T>
class PrivateSlots;

/// Passkey for PrivateCell construction: only PrivateSlots can make one,
/// so every private cell lives in a PrivateSlots holder. Cells that
/// contain private cells (RR-V's {ref, version}) take the key and forward
/// it to their members.
class OwnerKey {
  OwnerKey() = default;
  template <class>
  friend class PrivateSlots;
};

/// A word that only its owning thread ever reads or writes: a per-thread
/// reservation cell. It is reachable only through `tx.read_private` /
/// `tx.write_private` (see TxLifecycle), which buffer writes until the
/// transaction commits and never log or validate reads, so a transaction
/// whose only writes are private ones commits as a reader. Non-copyable,
/// hence not a TxWord: `tx.read(cell)` / `tx.write(cell, v)` do not
/// compile. Constructible only from an OwnerKey, so the one way to reach
/// a cell is `PrivateSlots::mine()`: the type, not a convention, keeps
/// other threads out.
template <TxWord T>
class PrivateCell {
 public:
  explicit constexpr PrivateCell(OwnerKey) noexcept {}
  PrivateCell(const PrivateCell&) = delete;
  PrivateCell& operator=(const PrivateCell&) = delete;

 private:
  friend class TxLifecycle;
  T value_{};
};

/// Owner-only holder: one padded `T` (a PrivateCell, or a cell built of
/// them) per thread-registry slot, and no accessor but the calling
/// thread's own. There is deliberately no by-slot or live-range reach.
template <class T>
class PrivateSlots {
 public:
  T& mine() noexcept { return slots_.mine(); }

 private:
  struct Keyed : T {
    Keyed() : T(OwnerKey{}) {}
  };
  util::PerThread<Keyed> slots_;
};

static_assert(!TxWord<PrivateCell<int>>);

/// All shared-memory accesses that can race with a committing writer go
/// through std::atomic_ref so that zombie readers never execute a C++-level
/// data race (CP.2). Memory ordering is acquire/release: the TM metadata
/// (seqlock / orecs) carries the synchronizes-with edges; the data accesses
/// only need to not tear and to not be reordered around the metadata checks.
template <TxWord T>
inline T atomic_load(const T& loc) noexcept {
  sched::point(sched::Op::kTmLoad, &loc);
  return std::atomic_ref<const T>(loc).load(std::memory_order_acquire);
}

template <TxWord T>
inline void atomic_store(T& loc, T val) noexcept {
  sched::point(sched::Op::kTmStore, &loc);
  std::atomic_ref<T>(loc).store(val, std::memory_order_release);
}

/// Type-erased word value: the write set and undo log store bit patterns
/// plus the access width, and replay them with the same width.
struct ErasedWord {
  std::uint64_t bits = 0;
  std::uint8_t width = 0;  // 1, 2, 4, or 8 bytes
};

template <TxWord T>
inline ErasedWord erase_word(T val) noexcept {
  ErasedWord w;
  w.width = sizeof(T);
  std::memcpy(&w.bits, &val, sizeof(T));
  return w;
}

template <TxWord T>
inline T restore_word(ErasedWord w) noexcept {
  T val;
  std::memcpy(&val, &w.bits, sizeof(T));
  return val;
}

/// Store an erased word to `addr` with the width it was captured at.
inline void erased_store(void* addr, ErasedWord w) noexcept {
  switch (w.width) {
    case 1:
      atomic_store(*static_cast<std::uint8_t*>(addr),
                   static_cast<std::uint8_t>(w.bits));
      break;
    case 2:
      atomic_store(*static_cast<std::uint16_t*>(addr),
                   static_cast<std::uint16_t>(w.bits));
      break;
    case 4:
      atomic_store(*static_cast<std::uint32_t*>(addr),
                   static_cast<std::uint32_t>(w.bits));
      break;
    default:
      atomic_store(*static_cast<std::uint64_t*>(addr), w.bits);
      break;
  }
}

/// Non-atomic `erased_store`, for words no other thread can access.
inline void plain_store(void* addr, ErasedWord w) noexcept {
  switch (w.width) {
    case 1:
      std::memcpy(addr, &w.bits, 1);
      break;
    case 2:
      std::memcpy(addr, &w.bits, 2);
      break;
    case 4:
      std::memcpy(addr, &w.bits, 4);
      break;
    default:
      std::memcpy(addr, &w.bits, 8);
      break;
  }
}

/// Load an erased word from `addr` at the given width.
inline ErasedWord erased_load(const void* addr, std::uint8_t width) noexcept {
  ErasedWord w;
  w.width = width;
  switch (width) {
    case 1:
      w.bits = atomic_load(*static_cast<const std::uint8_t*>(addr));
      break;
    case 2:
      w.bits = atomic_load(*static_cast<const std::uint16_t*>(addr));
      break;
    case 4:
      w.bits = atomic_load(*static_cast<const std::uint32_t*>(addr));
      break;
    default:
      w.bits = atomic_load(*static_cast<const std::uint64_t*>(addr));
      break;
  }
  return w;
}

}  // namespace hohtm::tm
