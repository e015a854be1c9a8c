#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "alloc/object.hpp"
#include "reclaim/gauge.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "tm/tm.hpp"
#include "util/random.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::ds {

/// Singly linked set with hand-over-hand transactions and *hazard-pointer*
/// reclamation (the paper's TMHP baseline, closest to Liu et al. 2015).
///
/// The traversal skeleton matches Listing 5, but instead of a revocable
/// reservation the thread publishes a hazard pointer on the node where a
/// window pauses (one hazard access per transaction, as the paper notes),
/// and each node carries an `unlinked` flag that Remove sets
/// transactionally. A resumed window first checks the flag: the hazard
/// guarantees the node is still mapped, the flag says whether resuming
/// from it is still meaningful.
///
/// Reclamation is deferred: Remove retires nodes to the hazard domain,
/// which frees them in batches (threshold 64, the paper's best setting).
/// Contrast with revocable reservations, where Remove's transaction frees
/// immediately.
template <class TM, class Key = long>
class SllTmhp {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  explicit SllTmhp(int window = 16, bool scatter = true,
                   std::size_t scan_threshold = 64)
      : window_(window),
        scatter_(scatter),
        hazards_(scan_threshold, &TM::quiesce_before_free) {
    head_ = alloc::create<Node>(std::numeric_limits<Key>::min(), nullptr);
    reclaim::Gauge::on_alloc();
  }

  SllTmhp(const SllTmhp&) = delete;
  SllTmhp& operator=(const SllTmhp&) = delete;

  ~SllTmhp() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      alloc::destroy(n);
      reclaim::Gauge::on_free();
      n = next;
    }
    // Retired (unlinked) nodes are freed by the domain's destructor.
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
          retired_in_tx_ = curr;  // retire after the commit succeeds
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

  /// Logically-deleted-but-unreclaimed node count (the deferral backlog
  /// revocable reservations do not have).
  std::size_t reclaimer_backlog() const noexcept {
    return hazards_.total_backlog();
  }

  static constexpr const char* name() noexcept { return "TMHP"; }
  int window() const noexcept { return window_; }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    Node* next;
    long unlinked = 0;
    Node(Key k, Node* n) : key(k), next(n) {}
  };

  static constexpr std::size_t kHoldSlot = 0;   // node a window resumes from
  static constexpr std::size_t kNextSlot = 1;   // node the next window needs

  static void delete_node(void* p) noexcept {
    alloc::destroy(static_cast<Node*>(p));
    reclaim::Gauge::on_free();
  }

  template <class FFound, class FNotFound>
  bool apply(Key key, FFound&& on_found, FNotFound&& on_not_found) {
    Node* resume = nullptr;  // protected by kHoldSlot while non-null
    for (;;) {
      retired_in_tx_ = nullptr;
      struct Step {
        std::optional<bool> result;
        Node* next_resume = nullptr;
      };
      const Step step = TM::atomically([&](Tx& tx) -> Step {
        retired_in_tx_ = nullptr;  // transaction may be a retry
        Node* prev = resume;
        int used = 0;
        if (prev != nullptr && tx.read(prev->unlinked) != 0) {
          // The node we paused on left the list; restart from the head.
          prev = nullptr;
        }
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
        if (curr != nullptr && curr->key == key)
          return Step{on_found(tx, prev, curr), nullptr};
        if (curr == nullptr || curr->key > key)
          return Step{on_not_found(tx, prev, curr), nullptr};
        // Window boundary: publish the hazard *inside* the transaction —
        // if the transaction commits, curr was reachable at commit time,
        // so any remover that unlinks it serializes later and its scan
        // will observe this hazard.
        hazards_.protect(kNextSlot, curr);
        return Step{std::nullopt, curr};
      });
      if (retired_in_tx_ != nullptr) {
        // Deferred reclamation: the unlink committed; queue the node.
        hazards_.retire(retired_in_tx_, &delete_node);
        retired_in_tx_ = nullptr;
      }
      if (step.result.has_value()) {
        hazards_.clear_all();
        return *step.result;
      }
      // Shift the protection: the new pause node becomes the held node.
      hazards_.protect(kHoldSlot, step.next_resume);
      hazards_.clear(kNextSlot);
      resume = step.next_resume;
    }
  }

  int initial_scatter() {
    if (!scatter_ || window_ <= 1 || window_ == kUnbounded) return 0;
    thread_local util::Xoshiro256 rng(
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 5);
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(window_)));
  }

  int window_;
  bool scatter_;
  Node* head_;
  reclaim::HazardDomain hazards_;
  // Per-thread scratch: node whose retirement is pending on tx commit.
  static inline thread_local Node* retired_in_tx_ = nullptr;
};

}  // namespace hohtm::ds
