#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rr_common.hpp"

namespace hohtm::rr {

/// RR-SO — shared-ownership reservations (paper §3.2).
///
/// RR-XO with A ownership arrays: each thread stamps its id only into its
/// assigned array, so up to A threads can concurrently hold reservations
/// on references that share a hash slot, and same-slot Reserves from
/// different arrays no longer conflict. Revoke must clear the slot in all
/// A arrays — O(A), still constant. As in RR-XO, the reference cell is a
/// PrivateCell and the ownership arrays stay transactional.
template <class TM, std::size_t kArrays = 8>
class RrSo {
  static_assert(kArrays >= 1);

 public:
  using Tx = typename TM::Tx;
  static constexpr bool kStrict = false;
  static constexpr bool kReal = true;
  static constexpr const char* name() noexcept { return "RR-SO"; }

  explicit RrSo(std::size_t log2_slots = 12)
      : log2_slots_(log2_slots),
        own_(kArrays << log2_slots, kRevoked) {}

  RrSo(const RrSo&) = delete;
  RrSo& operator=(const RrSo&) = delete;

  void register_thread(Tx& tx) {
    if (generations_.is_registered(tx)) return;
    tx.write_private(my_ref(), static_cast<Ref>(nullptr));
    generations_.mark_registered(tx);
  }

  void reserve(Tx& tx, Ref ref) {
    note_reserve(ref);
    tx.write(own_[slot_index(my_array(), ref)], my_id());
    tx.write_private(my_ref(), ref);
  }

  /// Thread-local only: never causes transaction conflicts.
  void release(Tx& tx) {
    tx.write_private(my_ref(), static_cast<Ref>(nullptr));
  }

  Ref get(Tx& tx) {
    const Ref ref = tx.read_private(my_ref());
    if (ref == nullptr ||
        tx.read(own_[slot_index(my_array(), ref)]) != my_id()) {
      note_get(nullptr);
      return nullptr;
    }
    note_get(ref);
    return ref;
  }

  void revoke(Tx& tx, Ref ref) {
    note_revocation(ref);
    if (mutation_drops_revoke()) return;
    for (std::size_t array = 0; array < kArrays; ++array)
      tx.write(own_[slot_index(array, ref)], kRevoked);
  }

 private:
  static constexpr std::int64_t kRevoked = -1;

  std::size_t my_array() const noexcept {
    return util::ThreadRegistry::slot() % kArrays;
  }

  std::size_t slot_index(std::size_t array, Ref ref) const noexcept {
    return (array << log2_slots_) + hash_ref(ref, log2_slots_);
  }

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
