#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "alloc/object.hpp"
#include "core/multi_rr.hpp"
#include "tm/tm.hpp"
#include "util/random.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::ds {

/// Sorted singly-linked set with **multi-reservation composition**: the
/// paper's extension experiment. On top of the usual insert / remove /
/// contains, it offers
///
///     move(victim, replacement)
///
/// which atomically removes `victim` and inserts `replacement` — even
/// though the two positions are found by *separate* hand-over-hand
/// traversals. Each traversal parks a reservation on the predecessor of
/// its position (two live reservations, hence MultiRrV); a final small
/// transaction re-validates both neighbourhoods by key and performs the
/// splice, the revoke, and the free together. The reservations do not
/// make the hints infallible — they make the hinted nodes *safe to touch*
/// (a node can only be freed after revoking, which nils the hint), and
/// the final transaction's reads detect staleness and retry.
template <class TM, class Key = long>
class SllMove {
 public:
  using Tx = typename TM::Tx;
  using RR = rr::MultiRrV<TM, 4>;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  explicit SllMove(int window = 16)
      : window_(window) {
    head_ = alloc::create<Node>(std::numeric_limits<Key>::min(), nullptr);
    reclaim::Gauge::on_alloc();
  }

  SllMove(const SllMove&) = delete;
  SllMove& operator=(const SllMove&) = delete;

  ~SllMove() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      alloc::destroy(n);
      reclaim::Gauge::on_free();
      n = next;
    }
  }

  bool insert(Key key) {
    return TM::atomically([&](Tx& tx) {
      reservation_.register_thread(tx);
      Node* prev = find_prev(tx, key);
      Node* curr = tx.read(prev->next);
      if (curr != nullptr && curr->key == key) return false;
      Node* fresh = tx.template alloc<Node>(key, curr);
      tx.write(prev->next, fresh);
      return true;
    });
  }

  bool remove(Key key) {
    return TM::atomically([&](Tx& tx) {
      reservation_.register_thread(tx);
      Node* prev = find_prev(tx, key);
      Node* curr = tx.read(prev->next);
      if (curr == nullptr || curr->key != key) return false;
      unlink_free(tx, prev, curr);
      return true;
    });
  }

  bool contains(Key key) {
    return TM::atomically([&](Tx& tx) {
      reservation_.register_thread(tx);
      Node* prev = find_prev(tx, key);
      Node* curr = tx.read(prev->next);
      return curr != nullptr && curr->key == key;
    });
  }

  /// Atomically: remove `victim` and insert `replacement`. Returns true
  /// iff, at one instant, `victim` was present and `replacement` absent
  /// and the swap happened. Both positions are located by independent
  /// hand-over-hand traversals holding simultaneous reservations.
  bool move(Key victim, Key replacement) {
    if (victim == replacement) return false;
    for (;;) {
      // Phase 1: hand-over-hand hunt for victim's predecessor; park a
      // reservation on it.
      Node* victim_prev = hunt(victim, nullptr);
      // Phase 2: same for the replacement's insertion predecessor. The
      // victim_prev reservation stays live throughout (the hunt is told
      // not to release it even if its own windows pause there).
      Node* insert_prev = hunt(replacement, victim_prev);

      // Phase 3: one small transaction validates both hints and commits
      // the whole move. Any staleness (reservation revoked, key moved,
      // neighbourhood changed) restarts the operation.
      enum class Outcome { kDone, kFailed, kRetry };
      const Outcome outcome = TM::atomically([&](Tx& tx) {
        reservation_.register_thread(tx);
        Node* vp = checked(tx, victim_prev);
        Node* ip = checked(tx, insert_prev);
        if (vp == nullptr || ip == nullptr) return Outcome::kRetry;
        // A valid reservation proves the hint node is alive AND linked
        // (every unlink in this structure revokes). Its key is immutable
        // and < the hunted key, so the true position is at or after it:
        // re-walk transactionally. The walk is the atomic arbiter — if
        // it says the victim is absent, the move fails *atomically*.
        Node* vcurr = tx.read(vp->next);
        while (vcurr != nullptr && vcurr->key < victim) {
          vp = vcurr;
          vcurr = tx.read(vcurr->next);
        }
        if (vcurr == nullptr || vcurr->key != victim)
          return Outcome::kFailed;  // victim not in the set
        Node* icurr = tx.read(ip->next);
        while (icurr != nullptr && icurr->key < replacement) {
          ip = icurr;
          icurr = tx.read(icurr->next);
        }
        if (icurr != nullptr && icurr->key == replacement)
          return Outcome::kFailed;  // replacement already present
        // Splice. Three shapes, by how the two neighbourhoods overlap:
        Node* fresh = tx.template alloc<Node>(replacement, nullptr);
        if (ip == vp) {
          // Same gap (replacement < victim, icurr == vcurr == victim's
          // node): vp -> fresh -> victim.next.
          tx.write(fresh->next, tx.read(vcurr->next));
          tx.write(vp->next, fresh);
        } else if (ip == vcurr) {
          // Insertion gap directly after the victim (victim <
          // replacement < icurr): vp -> fresh -> icurr.
          tx.write(fresh->next, icurr);
          tx.write(vp->next, fresh);
        } else {
          // Disjoint (including icurr == vp): independent writes.
          tx.write(fresh->next, icurr);
          tx.write(ip->next, fresh);
          tx.write(vp->next, tx.read(vcurr->next));
        }
        reservation_.revoke(tx, vcurr);
        tx.dealloc(vcurr);
        reservation_.release_all(tx);
        return Outcome::kDone;
      });
      if (outcome == Outcome::kRetry) {
        TM::atomically([&](Tx& tx) {
          reservation_.register_thread(tx);
          reservation_.release_all(tx);
        });
        continue;
      }
      if (outcome == Outcome::kFailed) {
        TM::atomically([&](Tx& tx) {
          reservation_.register_thread(tx);
          reservation_.release_all(tx);
        });
        return false;
      }
      return true;
    }
  }

  std::size_t size() {
    return TM::atomically([&](Tx& tx) {
      std::size_t count = 0;
      for (Node* n = tx.read(head_->next); n != nullptr; n = tx.read(n->next))
        ++count;
      return count;
    });
  }

  bool is_sorted() {
    return TM::atomically([&](Tx& tx) {
      Node* n = tx.read(head_->next);
      while (n != nullptr) {
        Node* next = tx.read(n->next);
        if (next != nullptr && next->key <= n->key)
          return false;
        n = next;
      }
      return true;
    });
  }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    Node* next;
    Node(Key k, Node* n) : key(k), next(n) {}
  };

  /// Single-transaction predecessor search (used by the plain ops; the
  /// multi-reservation machinery is exercised by move()).
  Node* find_prev(Tx& tx, Key key) {
    Node* prev = head_;
    Node* curr = tx.read(prev->next);
    while (curr != nullptr && curr->key < key) {
      prev = curr;
      curr = tx.read(curr->next);
    }
    return prev;
  }

  /// Hand-over-hand hunt for the predecessor of `key`, leaving a live
  /// reservation on the returned node. The node cannot be freed until
  /// some remover revokes it, at which point phase 3's `checked` sees nil.
  /// `keep` (a node another phase still relies on) is never released even
  /// if this hunt's windows pause on it.
  Node* hunt(Key key, Node* keep) {
    for (;;) {
      struct Step {
        Node* node = nullptr;
        bool done = false;
      };
      Node* resume = resume_;
      const Step step = TM::atomically([&](Tx& tx) -> Step {
        reservation_.register_thread(tx);
        Node* prev = resume;
        if (prev != nullptr && reservation_.get(tx, prev) == nullptr)
          prev = nullptr;  // revoked between windows
        if (prev == nullptr) prev = head_;
        Node* curr = tx.read(prev->next);
        int used = 0;
        while (curr != nullptr && curr->key < key &&
               used < window_) {
          prev = curr;
          curr = tx.read(curr->next);
          ++used;
        }
        if (resume != nullptr && prev != resume && resume != keep)
          reservation_.release(tx, resume);
        if (prev != head_) reservation_.reserve(tx, prev);
        const bool done = curr == nullptr || curr->key >= key;
        return Step{prev, done};
      });
      resume_ = step.node;
      if (step.done) {
        resume_ = nullptr;
        return step.node;
      }
    }
  }

  /// Returns the node if its reservation is still valid, nullptr
  /// otherwise. The head sentinel needs no reservation.
  Node* checked(Tx& tx, Node* node) {
    if (node == head_) return node;
    return static_cast<Node*>(
        const_cast<void*>(reservation_.get(tx, node)));
  }

  void unlink_free(Tx& tx, Node* prev, Node* curr) {
    tx.write(prev->next, tx.read(curr->next));
    reservation_.revoke(tx, curr);
    tx.dealloc(curr);
  }

  int window_;
  Node* head_;
  RR reservation_;
  static inline thread_local Node* resume_ = nullptr;
};

}  // namespace hohtm::ds
