#pragma once

#include "alloc/object.hpp"
#include "core/rr_common.hpp"
#include "reclaim/gauge.hpp"
#include "util/per_thread.hpp"

namespace hohtm::rr {

/// RR-FA — fully associative reservations (paper Listing 2).
///
/// A global linked list holds one node per registered thread; the node
/// stores that thread's current reservation. Reserve/Release/Get are O(1)
/// accesses to the thread's own node; Revoke walks the whole list — O(T) —
/// and clears every node holding the revoked reference.
///
/// Strict: Get returns nil only after a Release or a Revoke of the exact
/// reserved reference. The O(T) Revoke also conflicts with any concurrent
/// Reserve/Release it passes over, which is the scalability cost Figure 2
/// quantifies.
template <class TM>
class RrFa {
 public:
  using Tx = typename TM::Tx;
  static constexpr bool kStrict = true;
  static constexpr bool kReal = true;
  static constexpr const char* name() noexcept { return "RR-FA"; }

  RrFa() = default;
  RrFa(const RrFa&) = delete;
  RrFa& operator=(const RrFa&) = delete;

  ~RrFa() {
    // Destruction races with nothing (clients destroy the owning data
    // structure only once all threads are done with it).
    ThreadNode* n = head_;
    while (n != nullptr) {
      ThreadNode* next = n->next;
      alloc::destroy(n);
      reclaim::Gauge::on_free();
      n = next;
    }
  }

  /// Idempotent per thread lifetime. Appends a node on first ever use of
  /// this slot; scrubs the node when the slot was inherited from an
  /// exited thread.
  void register_thread(Tx& tx) {
    if (generations_.is_registered(tx)) return;
    auto& mine = nodes_.mine();
    ThreadNode* node = tx.read(mine);
    if (node == nullptr) {
      node = tx.template alloc<ThreadNode>();
      tx.write(node->value, static_cast<Ref>(nullptr));
      tx.write(node->next, tx.read(head_));
      tx.write(head_, node);
      tx.write(mine, node);
    } else {
      tx.write(node->value, static_cast<Ref>(nullptr));  // stale reservation
    }
    generations_.mark_registered(tx);
  }

  void reserve(Tx& tx, Ref ref) {
    note_reserve(ref);
    tx.write(mine(tx)->value, ref);
  }

  void release(Tx& tx) {
    tx.write(mine(tx)->value, static_cast<Ref>(nullptr));
  }

  Ref get(Tx& tx) {
    const Ref ref = tx.read(mine(tx)->value);
    note_get(ref);
    return ref;
  }

  void revoke(Tx& tx, Ref ref) {
    note_revocation(ref);
    for (ThreadNode* n = tx.read(head_); n != nullptr; n = tx.read(n->next)) {
      if (tx.read(n->value) == ref)
        tx.write(n->value, static_cast<Ref>(nullptr));
    }
  }

  /// Number of nodes currently in the list (test/diagnostic helper).
  std::size_t registered_count(Tx& tx) {
    std::size_t count = 0;
    for (ThreadNode* n = tx.read(head_); n != nullptr; n = tx.read(n->next))
      ++count;
    return count;
  }

  /// Gauge-counted objects this algorithm currently owns (one node per
  /// slot that ever registered). Quiescent-only: callers must know no
  /// thread is mid-transaction, exactly as the destructor does.
  std::size_t gauge_owned() const noexcept {
    std::size_t count = 0;
    for (const auto& cell : nodes_.live())
      if (cell.value != nullptr) ++count;
    return count;
  }

 private:
  /// One list node per thread, padded: the paper notes Reserve/Release/Get
  /// avoid false conflicts "as long as each thread's node is in a separate
  /// cache line".
  struct alignas(util::kCacheLineSize) ThreadNode {
    Ref value = nullptr;
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
