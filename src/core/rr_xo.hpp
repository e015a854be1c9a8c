#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rr_common.hpp"

namespace hohtm::rr {

/// RR-XO — exclusive-ownership reservations (paper Listing 3).
///
/// A hash-indexed array OWN maps references many-to-one onto thread-id
/// slots. Reserve stamps the caller's id into OWN[hash(ref)] and the
/// reference into a thread-private cell; Get succeeds only if the stamp
/// is still the caller's; Revoke overwrites the stamp with -1. Every
/// operation is O(1); Revoke is a single word write.
///
/// Relaxed: a Get may return nil spuriously — another thread reserving a
/// *different* reference that hashes to the same OWN slot evicts the
/// caller's stamp (and at most one thread can hold a reservation on any
/// given slot). Progress, not correctness, is what this costs (§3.2).
///
/// The thread-private reference cell is a PrivateCell (only its owner
/// reads it), so Release never makes a transaction a writer. OWN stays
/// transactional: revokers write it.
template <class TM>
class RrXo {
 public:
  using Tx = typename TM::Tx;
  static constexpr bool kStrict = false;
  static constexpr bool kReal = true;
  static constexpr const char* name() noexcept { return "RR-XO"; }

  explicit RrXo(std::size_t log2_slots = 12)
      : log2_slots_(log2_slots), own_(std::size_t{1} << log2_slots, kRevoked) {}

  RrXo(const RrXo&) = delete;
  RrXo& operator=(const RrXo&) = delete;

  /// The dense thread-registry slot doubles as the paper's unique id, so
  /// registration only needs to scrub a recycled slot's stale reference.
  void register_thread(Tx& tx) {
    if (generations_.is_registered(tx)) return;
    tx.write_private(my_ref(), static_cast<Ref>(nullptr));
    generations_.mark_registered(tx);
  }

  void reserve(Tx& tx, Ref ref) {
    note_reserve(ref);
    tx.write(own_[hash_ref(ref, log2_slots_)], my_id());
    tx.write_private(my_ref(), ref);
  }

  /// Thread-local only: never causes transaction conflicts.
  void release(Tx& tx) {
    tx.write_private(my_ref(), static_cast<Ref>(nullptr));
  }

  Ref get(Tx& tx) {
    const Ref ref = tx.read_private(my_ref());
    if (ref == nullptr || tx.read(own_[hash_ref(ref, log2_slots_)]) != my_id()) {
      note_get(nullptr);
      return nullptr;
    }
    note_get(ref);
    return ref;
  }

  void revoke(Tx& tx, Ref ref) {
    note_revocation(ref);
    if (mutation_drops_revoke()) return;
    tx.write(own_[hash_ref(ref, log2_slots_)], kRevoked);
  }

 private:
  static constexpr std::int64_t kRevoked = -1;

  std::int64_t my_id() const noexcept {
    return static_cast<std::int64_t>(util::ThreadRegistry::slot());
  }

  tm::PrivateCell<Ref>& my_ref() noexcept { return refs_.mine(); }

  std::size_t log2_slots_;
  std::vector<std::int64_t> own_;
  tm::PrivateSlots<tm::PrivateCell<Ref>> refs_;
  SlotGenerations generations_;
};

}  // namespace hohtm::rr
