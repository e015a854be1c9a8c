#pragma once

#include <cstddef>
#include <vector>

#include "alloc/object.hpp"
#include "core/rr_common.hpp"
#include "reclaim/gauge.hpp"
#include "util/per_thread.hpp"

namespace hohtm::rr {

/// Shared machinery for the hash-bucketed strict reservation algorithms:
/// RR-DM (direct mapped, one bucket array) and RR-SA (set associative,
/// A bucket arrays with threads spread across them). See paper §3.1.
///
/// Each bucket is a circular doubly-linked list headed by a sentinel
/// (the paper adds sentinels "to reduce contention": reserving threads
/// splice right after the sentinel and never touch each other's nodes
/// unless the lists are long). A thread's node is linked into the bucket
/// its reserved reference hashes to, in the thread's assigned array.
///
/// Contention-avoiding optimization from the paper: Release only clears
/// the value and *delays* the unlink; the node is moved lazily by the next
/// Reserve that needs a different bucket.
template <class TM, std::size_t kArrays>
class RrBucketed {
  static_assert(kArrays >= 1);

 public:
  using Tx = typename TM::Tx;
  static constexpr bool kStrict = true;
  static constexpr bool kReal = true;

  /// `log2_buckets`: log2 of the bucket count per array.
  /// `delayed_unlink`: the paper's contention-avoiding optimization —
  /// Release leaves the node linked (moved lazily by a later Reserve);
  /// pass false for the eager variant ("should remove its node from the
  /// list"), which keeps buckets minimal at the cost of extra splicing
  /// traffic. The A7 ablation bench quantifies the trade.
  explicit RrBucketed(std::size_t log2_buckets = 6, bool delayed_unlink = true)
      : log2_buckets_(log2_buckets),
        delayed_unlink_(delayed_unlink),
        buckets_(kArrays << log2_buckets) {
    for (Sentinel& s : buckets_) {
      s.node.next = &s.node;
      s.node.prev = &s.node;
    }
  }

  RrBucketed(const RrBucketed&) = delete;
  RrBucketed& operator=(const RrBucketed&) = delete;

  ~RrBucketed() {
    for (auto& cell : nodes_.live()) {
      if (cell.value != nullptr) {
        alloc::destroy(cell.value);
        reclaim::Gauge::on_free();
      }
    }
  }

  void register_thread(Tx& tx) {
    if (generations_.is_registered(tx)) return;
    auto& mine = nodes_.mine();
    ThreadNode* node = tx.read(mine);
    if (node == nullptr) {
      node = tx.template alloc<ThreadNode>();
      tx.write(node->value, static_cast<Ref>(nullptr));
      tx.write(node->bucket, kUnlinked);
      tx.write(node->next, static_cast<ThreadNode*>(nullptr));
      tx.write(node->prev, static_cast<ThreadNode*>(nullptr));
      tx.write(mine, node);
    } else {
      tx.write(node->value, static_cast<Ref>(nullptr));  // stale reservation
    }
    generations_.mark_registered(tx);
  }

  void reserve(Tx& tx, Ref ref) {
    note_reserve(ref);
    ThreadNode* node = mine(tx);
    const std::ptrdiff_t target = bucket_index(my_array(), ref);
    const std::ptrdiff_t current = tx.read(node->bucket);
    if (current != target) {
      if (current != kUnlinked) unlink(tx, node);
      link_after_sentinel(tx, node, target);
    }
    tx.write(node->value, ref);
  }

  void release(Tx& tx) {
    // Clearing the value suffices for correctness; in delayed mode the
    // node stays linked and is moved by a later Reserve if it needs a
    // different bucket.
    ThreadNode* node = mine(tx);
    tx.write(node->value, static_cast<Ref>(nullptr));
    if (!delayed_unlink_ && tx.read(node->bucket) != kUnlinked)
      unlink(tx, node);
  }

  Ref get(Tx& tx) {
    const Ref ref = tx.read(mine(tx)->value);
    note_get(ref);
    return ref;
  }

  /// Clear every reservation of `ref` in each array's matching bucket:
  /// O(A + occupants). Reserved-but-stale occupants of the bucket make
  /// the scan longer and widen the revoker's read set — the contention
  /// effect Figures 2 and 6 show for RR-DM/RR-SA.
  void revoke(Tx& tx, Ref ref) {
    note_revocation(ref);
    for (std::size_t array = 0; array < kArrays; ++array) {
      ThreadNode* sentinel = sentinel_of(bucket_index(array, ref));
      for (ThreadNode* n = tx.read(sentinel->next); n != sentinel;
           n = tx.read(n->next)) {
        if (tx.read(n->value) == ref)
          tx.write(n->value, static_cast<Ref>(nullptr));
      }
    }
  }

  /// Diagnostic: number of nodes currently linked in bucket `b` of the
  /// calling thread's array.
  std::size_t bucket_occupancy(Tx& tx, std::size_t b) {
    ThreadNode* sentinel =
        sentinel_of(static_cast<std::ptrdiff_t>((my_array() << log2_buckets_) + b));
    std::size_t count = 0;
    for (ThreadNode* n = tx.read(sentinel->next); n != sentinel;
         n = tx.read(n->next))
      ++count;
    return count;
  }

  std::size_t bucket_count() const noexcept {
    return std::size_t{1} << log2_buckets_;
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
  static constexpr std::ptrdiff_t kUnlinked = -1;

  struct alignas(util::kCacheLineSize) ThreadNode {
    Ref value = nullptr;
    ThreadNode* next = nullptr;
    ThreadNode* prev = nullptr;
    std::ptrdiff_t bucket = kUnlinked;
  };

  struct Sentinel {
    ThreadNode node;
  };

  std::size_t my_array() const noexcept {
    if constexpr (kArrays == 1)
      return 0;
    else
      return util::ThreadRegistry::slot() % kArrays;
  }

  std::ptrdiff_t bucket_index(std::size_t array, Ref ref) const noexcept {
    return static_cast<std::ptrdiff_t>((array << log2_buckets_) +
                                       hash_ref(ref, log2_buckets_));
  }

  ThreadNode* sentinel_of(std::ptrdiff_t index) noexcept {
    return &buckets_[static_cast<std::size_t>(index)].node;
  }

  ThreadNode* mine(Tx& tx) {
    return tx.read(nodes_.mine());
  }

  void link_after_sentinel(Tx& tx, ThreadNode* node, std::ptrdiff_t index) {
    ThreadNode* sentinel = sentinel_of(index);
    ThreadNode* successor = tx.read(sentinel->next);
    tx.write(node->next, successor);
    tx.write(node->prev, sentinel);
    tx.write(successor->prev, node);
    tx.write(sentinel->next, node);
    tx.write(node->bucket, index);
  }

  void unlink(Tx& tx, ThreadNode* node) {
    ThreadNode* predecessor = tx.read(node->prev);
    ThreadNode* successor = tx.read(node->next);
    tx.write(predecessor->next, successor);
    tx.write(successor->prev, predecessor);
    tx.write(node->bucket, kUnlinked);
  }

  std::size_t log2_buckets_;
  bool delayed_unlink_;
  std::vector<Sentinel> buckets_;
  util::PerThread<ThreadNode*> nodes_;
  SlotGenerations generations_;
};

/// RR-DM — direct-mapped reservations: one array of hash buckets.
/// Revoke scans only the bucket the reference hashes to (common case
/// far below O(T)), but Reserve/Release now splice a doubly-linked list,
/// so concurrent reservations in one bucket conflict (paper §3.1).
template <class TM>
class RrDm : public RrBucketed<TM, 1> {
 public:
  using RrBucketed<TM, 1>::RrBucketed;
  static constexpr const char* name() noexcept { return "RR-DM"; }
};

/// RR-SA — set-associative reservations: A bucket arrays with threads
/// spread across them, trading a longer Revoke (one bucket per array,
/// O(A + T) worst case) for fewer Reserve/Release collisions.
template <class TM, std::size_t kArrays = 8>
class RrSa : public RrBucketed<TM, kArrays> {
 public:
  using RrBucketed<TM, kArrays>::RrBucketed;
  static constexpr const char* name() noexcept { return "RR-SA"; }
};

}  // namespace hohtm::rr
