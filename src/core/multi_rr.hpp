#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "alloc/object.hpp"
#include "core/rr_common.hpp"
#include "reclaim/gauge.hpp"
#include "util/per_thread.hpp"

namespace hohtm::rr {

/// Multi-reservation objects: per-thread *sets* of reserved references,
/// the extension the paper sketches in Section 3.1 ("To support multiple
/// reservations per thread, we would replace the value field with a
/// set"). Unlike the single-slot classes, these follow Listing 1's exact
/// signatures: Release and Get take the reference they operate on.
///
/// Capacity is a small compile-time constant: hand-over-hand algorithms
/// need a handful of simultaneous positions (traversal frontier, a pinned
/// victim, an insertion point), not an unbounded set, and a fixed array
/// keeps every operation allocation-free inside transactions.

/// Relaxed multi-reservation: versioned, like RR-V. Each held reference
/// stores the version counter observed at reserve time; Get re-checks it.
/// As in RR-V, the per-thread entries are PrivateCells (only their owner
/// reads them) and the version counters stay transactional.
template <class TM, std::size_t kCapacity = 4>
class MultiRrV {
 public:
  using Tx = typename TM::Tx;
  static constexpr bool kStrict = false;
  static constexpr bool kReal = true;
  static constexpr std::size_t capacity() noexcept { return kCapacity; }
  static constexpr const char* name() noexcept { return "MultiRR-V"; }

  explicit MultiRrV(std::size_t log2_slots = 12)
      : log2_slots_(log2_slots), versions_(std::size_t{1} << log2_slots, 0) {}

  MultiRrV(const MultiRrV&) = delete;
  MultiRrV& operator=(const MultiRrV&) = delete;

  void register_thread(Tx& tx) {
    if (generations_.is_registered(tx)) return;
    for (auto& entry : mine().entries)
      tx.write_private(entry.ref, static_cast<Ref>(nullptr));
    generations_.mark_registered(tx);
  }

  /// Adds `ref` to the caller's set. Returns false (and does nothing) if
  /// the set is full — callers release before re-reserving, so a false
  /// here is a usage bug surfaced softly.
  bool reserve(Tx& tx, Ref ref) {
    Cell& cell = mine();
    for (auto& entry : cell.entries) {  // already held: refresh version
      if (tx.read_private(entry.ref) == ref) {
        tx.write_private(entry.version, tx.read(versions_[slot_of(ref)]));
        return true;
      }
    }
    for (auto& entry : cell.entries) {
      if (tx.read_private(entry.ref) == nullptr) {
        tx.write_private(entry.version, tx.read(versions_[slot_of(ref)]));
        tx.write_private(entry.ref, ref);
        return true;
      }
    }
    return false;
  }

  /// Removes `ref` from the caller's set (no-op if absent).
  void release(Tx& tx, Ref ref) {
    for (auto& entry : mine().entries) {
      if (tx.read_private(entry.ref) == ref)
        tx.write_private(entry.ref, static_cast<Ref>(nullptr));
    }
  }

  void release_all(Tx& tx) {
    for (auto& entry : mine().entries)
      tx.write_private(entry.ref, static_cast<Ref>(nullptr));
  }

  /// Listing 1 semantics: `ref` if it is in the caller's set (and its
  /// slot has not been revoked since), nil otherwise.
  Ref get(Tx& tx, Ref ref) {
    for (auto& entry : mine().entries) {
      if (tx.read_private(entry.ref) == ref) {
        if (tx.read(versions_[slot_of(ref)]) != tx.read_private(entry.version))
          return nullptr;  // revoked (or hash-collided revoke: relaxed)
        return ref;
      }
    }
    return nullptr;
  }

  void revoke(Tx& tx, Ref ref) {
    note_revocation(ref);
    auto& counter = versions_[slot_of(ref)];
    tx.write(counter, tx.read(counter) + 1);
  }

  /// Number of live reservations held by the caller (diagnostics).
  std::size_t held(Tx& tx) {
    std::size_t count = 0;
    for (auto& entry : mine().entries)
      if (tx.read_private(entry.ref) != nullptr) ++count;
    return count;
  }

 private:
  struct Entry {
    explicit Entry(tm::OwnerKey key) : ref(key), version(key) {}
    tm::PrivateCell<Ref> ref;
    tm::PrivateCell<std::uint64_t> version;
  };
  struct Cell {
    explicit Cell(tm::OwnerKey key)
        : Cell(key, std::make_index_sequence<kCapacity>{}) {}
    template <std::size_t... I>
    Cell(tm::OwnerKey key, std::index_sequence<I...>)
        : entries{Entry((void(I), key))...} {}
    Entry entries[kCapacity];
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

/// Strict multi-reservation: fully associative, like RR-FA. Each thread
/// owns a padded node holding a small array of references; Revoke scans
/// every thread's array — O(T * kCapacity).
template <class TM, std::size_t kCapacity = 4>
class MultiRrFa {
 public:
  using Tx = typename TM::Tx;
  static constexpr bool kStrict = true;
  static constexpr bool kReal = true;
  static constexpr std::size_t capacity() noexcept { return kCapacity; }
  static constexpr const char* name() noexcept { return "MultiRR-FA"; }

  MultiRrFa() = default;
  MultiRrFa(const MultiRrFa&) = delete;
  MultiRrFa& operator=(const MultiRrFa&) = delete;

  ~MultiRrFa() {
    ThreadNode* n = head_;
    while (n != nullptr) {
      ThreadNode* next = n->next;
      alloc::destroy(n);
      reclaim::Gauge::on_free();
      n = next;
    }
  }

  void register_thread(Tx& tx) {
    if (generations_.is_registered(tx)) return;
    auto& mine = nodes_.mine();
    ThreadNode* node = tx.read(mine);
    if (node == nullptr) {
      node = tx.template alloc<ThreadNode>();
      for (auto& ref : node->refs) tx.write(ref, static_cast<Ref>(nullptr));
      tx.write(node->next, tx.read(head_));
      tx.write(head_, node);
      tx.write(mine, node);
    } else {
      for (auto& ref : node->refs) tx.write(ref, static_cast<Ref>(nullptr));
    }
    generations_.mark_registered(tx);
  }

  bool reserve(Tx& tx, Ref ref) {
    ThreadNode* node = mine(tx);
    for (auto& slot : node->refs)
      if (tx.read(slot) == ref) return true;
    for (auto& slot : node->refs) {
      if (tx.read(slot) == nullptr) {
        tx.write(slot, ref);
        return true;
      }
    }
    return false;
  }

  void release(Tx& tx, Ref ref) {
    ThreadNode* node = mine(tx);
    for (auto& slot : node->refs)
      if (tx.read(slot) == ref) tx.write(slot, static_cast<Ref>(nullptr));
  }

  void release_all(Tx& tx) {
    ThreadNode* node = mine(tx);
    for (auto& slot : node->refs) tx.write(slot, static_cast<Ref>(nullptr));
  }

  Ref get(Tx& tx, Ref ref) {
    ThreadNode* node = mine(tx);
    for (auto& slot : node->refs)
      if (tx.read(slot) == ref) return ref;
    return nullptr;
  }

  void revoke(Tx& tx, Ref ref) {
    note_revocation(ref);
    for (ThreadNode* n = tx.read(head_); n != nullptr; n = tx.read(n->next)) {
      for (auto& slot : n->refs)
        if (tx.read(slot) == ref) tx.write(slot, static_cast<Ref>(nullptr));
    }
  }

  std::size_t held(Tx& tx) {
    std::size_t count = 0;
    ThreadNode* node = mine(tx);
    for (auto& slot : node->refs)
      if (tx.read(slot) != nullptr) ++count;
    return count;
  }

 private:
  struct alignas(util::kCacheLineSize) ThreadNode {
    Ref refs[kCapacity] = {};
    ThreadNode* next = nullptr;
  };

  ThreadNode* mine(Tx& tx) {
    return tx.read(nodes_.mine());
  }

  ThreadNode* head_ = nullptr;
  util::PerThread<ThreadNode*> nodes_;
  SlotGenerations generations_;
};

}  // namespace hohtm::rr
