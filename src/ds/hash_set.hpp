#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "alloc/object.hpp"
#include "core/rr.hpp"
#include "tm/tm.hpp"
#include "util/random.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::ds {

/// Chained hash set with hand-over-hand transactions and revocable
/// reservations — the structure the paper's conclusion singles out as a
/// natural next application ("hash tables, for which existing scalable
/// algorithms rely on deferred memory reclamation").
///
/// Each bucket is a sorted chain headed by a sentinel; operations hash to
/// a bucket and run the Listing-5 traversal within it, sharing a single
/// reservation object across all buckets (references are node addresses,
/// so cross-bucket interference through the reservation is limited to the
/// relaxed algorithms' usual hash-collision noise). Removal frees chain
/// nodes immediately, so the table's footprint is exactly its occupancy —
/// the property deferred schemes give up.
template <class TM, class RR, class Key = long>
class HashSet {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  /// `log2_buckets` fixes the bucket count; chains grow unboundedly (no
  /// resize), matching the paper's fixed-key-range microbenchmarks.
  template <class... RrArgs>
  explicit HashSet(std::size_t log2_buckets = 8, int window = 16,
                   RrArgs&&... rr_args)
      : log2_buckets_(log2_buckets),
        window_(window),
        reservation_(std::forward<RrArgs>(rr_args)...) {
    buckets_.resize(std::size_t{1} << log2_buckets);
    for (Node*& head : buckets_) {
      head = alloc::create<Node>(std::numeric_limits<Key>::min(), nullptr);
      reclaim::Gauge::on_alloc();
    }
  }

  HashSet(const HashSet&) = delete;
  HashSet& operator=(const HashSet&) = delete;

  ~HashSet() {
    for (Node* head : buckets_) {
      Node* n = head;
      while (n != nullptr) {
        Node* next = n->next;
        alloc::destroy(n);
        reclaim::Gauge::on_free();
        n = next;
      }
    }
  }

  bool insert(Key key) {
    return apply(
        key, [](Tx&, Node*, Node*) { return false; },
        [&](Tx& tx, Node* prev, Node* curr) {
          Node* fresh = tx.template alloc<Node>(key, curr);
          tx.write(prev->next, fresh);
          return true;
        });
  }

  bool remove(Key key) {
    return apply(
        key,
        [&](Tx& tx, Node* prev, Node* curr) {
          tx.write(prev->next, tx.read(curr->next));
          reservation_.revoke(tx, curr);
          tx.dealloc(curr);
          return true;
        },
        [](Tx&, Node*, Node*) { return false; });
  }

  bool contains(Key key) {
    return apply(
        key, [](Tx&, Node*, Node*) { return true; },
        [](Tx&, Node*, Node*) { return false; });
  }

  std::size_t size() {
    std::size_t total = 0;
    for (Node* head : buckets_) {
      total += TM::atomically([&](Tx& tx) {
        std::size_t count = 0;
        for (Node* n = tx.read(head->next); n != nullptr;
             n = tx.read(n->next))
          ++count;
        return count;
      });
    }
    return total;
  }

  /// Every chain sorted and correctly homed; one transaction per bucket.
  bool is_consistent() {
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const bool ok = TM::atomically([&](Tx& tx) {
        Key last = std::numeric_limits<Key>::min();
        for (Node* n = tx.read(buckets_[b]->next); n != nullptr;
             n = tx.read(n->next)) {
          const Key k = n->key;
          if (k <= last) return false;
          if (bucket_of(k) != b) return false;
          last = k;
        }
        return true;
      });
      if (!ok) return false;
    }
    return true;
  }

  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  static const char* reservation_name() noexcept { return RR::name(); }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    Node* next;
    Node(Key k, Node* n) : key(k), next(n) {}
  };

  std::size_t bucket_of(Key key) const noexcept {
    auto h = static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> (64 - log2_buckets_));
  }

  template <class FFound, class FNotFound>
  bool apply(Key key, FFound&& on_found, FNotFound&& on_not_found) {
    Node* const head = buckets_[bucket_of(key)];
    for (;;) {
      const std::optional<bool> outcome =
          TM::atomically([&](Tx& tx) -> std::optional<bool> {
            reservation_.register_thread(tx);
            Node* prev = static_cast<Node*>(
                const_cast<void*>(reservation_.get(tx)));
            int used = 0;
            if (prev == nullptr) {
              prev = head;
              used = initial_scatter();
            }
            Node* curr = tx.read(prev->next);
            while (curr != nullptr && curr->key < key &&
                   used < window_) {
              prev = curr;
              curr = tx.read(curr->next);
              ++used;
            }
            if (curr != nullptr && curr->key == key) {
              const bool result = on_found(tx, prev, curr);
              reservation_.release(tx);
              return result;
            }
            if (curr == nullptr || curr->key > key) {
              const bool result = on_not_found(tx, prev, curr);
              reservation_.release(tx);
              return result;
            }
            reservation_.release(tx);
            reservation_.reserve(tx, curr);
            return std::nullopt;
          });
      if (outcome.has_value()) return *outcome;
    }
  }

  int initial_scatter() {
    if (window_ <= 1 || window_ == kUnbounded) return 0;
    thread_local util::Xoshiro256 rng(
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 9);
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(window_)));
  }

  std::size_t log2_buckets_;
  int window_;
  std::vector<Node*> buckets_;
  RR reservation_;
};

}  // namespace hohtm::ds
