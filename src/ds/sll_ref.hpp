#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "alloc/object.hpp"
#include "reclaim/gauge.hpp"
#include "tm/tm.hpp"
#include "util/cacheline.hpp"
#include "util/random.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::ds {

/// Singly linked set with hand-over-hand transactions and *reference
/// counting* (the paper's REF baseline — included to show why it loses:
/// every window boundary writes two shared counters, turning read-mostly
/// traversals into write traffic).
///
/// Following the paper's own optimizations, the count lives on its own
/// cache line within the node and is touched "only for the first and last
/// node of each transaction": a window boundary increments the new pause
/// node's count and decrements the previous one's. Remove unlinks and
/// marks the node; whoever drops the count to zero on a marked node frees
/// it (transactionally, hence precisely — the backlog is the set of
/// unlinked nodes still pinned by traversals).
template <class TM, class Key = long>
class SllRef {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  explicit SllRef(int window = 16, bool scatter = true)
      : window_(window), scatter_(scatter) {
    head_ = alloc::create<Node>(std::numeric_limits<Key>::min(), nullptr);
    reclaim::Gauge::on_alloc();
  }

  SllRef(const SllRef&) = delete;
  SllRef& operator=(const SllRef&) = delete;

  ~SllRef() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      alloc::destroy(n);
      reclaim::Gauge::on_free();
      n = next;
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
          tx.write(curr->unlinked, 1L);
          // REF reclaims by refcount, not reservation: the list is
          // pinned hand-over-hand, so an unpinned+unlinked node is
          // unreachable by construction and needs no revoke.
          // hohtm-analyze: allow(unlink-without-revoke)
          if (tx.read(curr->refcount) == 0) tx.dealloc(curr);
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
    return TM::atomically([&](Tx& tx) {
      std::size_t count = 0;
      for (Node* n = tx.read(head_->next); n != nullptr; n = tx.read(n->next))
        ++count;
      return count;
    });
  }

  static constexpr const char* name() noexcept { return "REF"; }
  int window() const noexcept { return window_; }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    Node* next;
    long unlinked = 0;
    // Separate cache line for the count, per the paper's optimization.
    alignas(util::kCacheLineSize) long refcount = 0;
    Node(Key k, Node* n) : key(k), next(n) {}
  };

  /// Drop one pin from `node`; free it if it is unlinked and unpinned.
  void unpin(Tx& tx, Node* node) {
    const long count = tx.read(node->refcount) - 1;
    tx.write(node->refcount, count);
    // Last unpinner frees: REF's refcount discipline replaces the
    // reservation revoke (see remove above).
    // hohtm-analyze: allow(unlink-without-revoke)
    if (count == 0 && tx.read(node->unlinked) != 0) tx.dealloc(node);
  }

  template <class FFound, class FNotFound>
  bool apply(Key key, FFound&& on_found, FNotFound&& on_not_found) {
    Node* resume = nullptr;  // holds one reference while non-null
    for (;;) {
      struct Step {
        std::optional<bool> result;
        Node* next_resume = nullptr;
      };
      const Step step = TM::atomically([&](Tx& tx) -> Step {
        Node* prev = resume;
        int used = 0;
        if (prev != nullptr && tx.read(prev->unlinked) != 0) {
          unpin(tx, prev);
          prev = nullptr;  // restart from the head
        }
        const bool pinned_start = prev != nullptr;
        if (prev == nullptr) {
          prev = head_;
          used = initial_scatter();
        }
        Node* curr = tx.read(prev->next);
        while (curr != nullptr && curr->key < key &&
               used < window_) {
          prev = curr;
          curr = tx.read(curr->next);
          ++used;
        }
        if (curr == nullptr || curr->key >= key) {
          const bool matched = curr != nullptr && curr->key == key;
          const bool result = matched ? on_found(tx, prev, curr)
                                      : on_not_found(tx, prev, curr);
          if (pinned_start) unpin(tx, resume);
          return Step{result, nullptr};
        }
        // Window boundary: pin the new pause node, unpin the old one.
        tx.write(curr->refcount, tx.read(curr->refcount) + 1);
        if (pinned_start) unpin(tx, resume);
        return Step{std::nullopt, curr};
      });
      if (step.result.has_value()) return *step.result;
      resume = step.next_resume;
    }
  }

  int initial_scatter() {
    if (!scatter_ || window_ <= 1 || window_ == kUnbounded) return 0;
    thread_local util::Xoshiro256 rng(
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 6);
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(window_)));
  }

  int window_;
  bool scatter_;
  Node* head_;
};

}  // namespace hohtm::ds
