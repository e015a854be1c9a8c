#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rr_common.hpp"

namespace hohtm::rr {

/// RR-V — versioned reservations (paper Listing 4).
///
/// The ownership array is replaced by an array of counters that act like
/// STM ownership records (the paper cites TL2). Reserve snapshots the
/// counter for the reference; Get checks the counter is unchanged; Revoke
/// increments it. All operations are O(1), Reserve writes no shared
/// memory, and any number of threads may hold reservations on the same
/// reference simultaneously — the strongest combination in the relaxed
/// family, and (with RR-XO) the best performer in the paper's Figures.
///
/// The per-thread cell {ref, version} is read only by its owner, so it is
/// a pair of PrivateCells: Reserve/Release/Get never make a transaction a
/// writer, and a hand-over-hand window that only moves its reservation
/// commits as a reader. The version counters stay transactional: Revoke
/// bumps them and every Get must see that bump.
///
/// Relaxed: a Revoke of a *different* reference that hashes to the same
/// counter spuriously invalidates the reservation.
template <class TM>
class RrV {
 public:
  using Tx = typename TM::Tx;
  static constexpr bool kStrict = false;
  static constexpr bool kReal = true;
  static constexpr const char* name() noexcept { return "RR-V"; }

  explicit RrV(std::size_t log2_slots = 12)
      : log2_slots_(log2_slots), versions_(std::size_t{1} << log2_slots, 0) {}

  RrV(const RrV&) = delete;
  RrV& operator=(const RrV&) = delete;

  void register_thread(Tx& tx) {
    if (generations_.is_registered(tx)) return;
    tx.write_private(mine().ref, static_cast<Ref>(nullptr));
    generations_.mark_registered(tx);
  }

  /// Reads (but does not write) the shared counter: concurrent Reserves
  /// of the same reference never conflict with each other.
  void reserve(Tx& tx, Ref ref) {
    note_reserve(ref);
    Cell& cell = mine();
    tx.write_private(cell.version, tx.read(versions_[slot_of(ref)]));
    tx.write_private(cell.ref, ref);
  }

  void release(Tx& tx) {
    tx.write_private(mine().ref, static_cast<Ref>(nullptr));
  }

  Ref get(Tx& tx) {
    Cell& cell = mine();
    const Ref ref = tx.read_private(cell.ref);
    if (ref == nullptr ||
        tx.read(versions_[slot_of(ref)]) != tx.read_private(cell.version)) {
      note_get(nullptr);
      return nullptr;
    }
    note_get(ref);
    return ref;
  }

  void revoke(Tx& tx, Ref ref) {
    note_revocation(ref);
    if (mutation_drops_revoke()) return;
    auto& counter = versions_[slot_of(ref)];
    tx.write(counter, tx.read(counter) + 1);
  }

 private:
  struct Cell {
    explicit Cell(tm::OwnerKey key) : ref(key), version(key) {}
    tm::PrivateCell<Ref> ref;
    tm::PrivateCell<std::uint64_t> version;
  };

  std::size_t slot_of(Ref ref) const noexcept {
    return hash_ref(ref, log2_slots_);
  }

  Cell& mine() noexcept { return cells_.mine(); }

  std::size_t log2_slots_;
  std::vector<std::uint64_t> versions_;
  tm::PrivateSlots<Cell> cells_;
  SlotGenerations generations_;
};

}  // namespace hohtm::rr
