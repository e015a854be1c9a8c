#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "alloc/object.hpp"
#include "core/rr.hpp"
#include "ds/window_policy.hpp"
#include "tm/tm.hpp"
#include "util/random.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::ds {

/// Skip list with hand-over-hand *lookups* and revocable reservations —
/// a probabilistically balanced structure standing in for the "balanced
/// trees" the paper's conclusion names as future work.
///
/// Design choice (documented honestly): lookups use hand-over-hand
/// windows — each transaction performs up to `window` node-hops of the
/// standard descent and pauses by reserving its current node and
/// remembering the current level (per-thread; the level is valid on
/// resume because a node's height is immutable and a reserved node is
/// still linked — every removal revokes). Inserts and removes run as a
/// single transaction each: linking a tower needs predecessors at every
/// level, which cannot be carried across windows without staleness, and
/// update transactions are short anyway (the situation the paper's 8-bit
/// tree panels show costs nothing). Removal unlinks the whole tower,
/// revokes the node, and frees it in the same transaction: reclamation
/// stays precise.
template <class TM, class RR, class Key = long>
class SkipList {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();
  static constexpr int kMaxHeight = 16;

  template <class... RrArgs>
  explicit SkipList(int window = 16, RrArgs&&... rr_args)
      : window_(window), reservation_(std::forward<RrArgs>(rr_args)...) {
    head_ = alloc::create<Node>(std::numeric_limits<Key>::min(), kMaxHeight);
    reclaim::Gauge::on_alloc();
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  ~SkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0];
      alloc::destroy(n);
      reclaim::Gauge::on_free();
      n = next;
    }
  }

  bool contains(Key key) {
    FusionState fusion(fusion_cap_);
    for (;;) {
      struct Step {
        std::optional<bool> result;
        Node* pause_node = nullptr;
        int pause_level = 0;
      };
      Node* resume_node = resume_node_;
      const int resume_level = resume_level_;
      const Step step = TM::atomically([&](Tx& tx) -> Step {
        fusion.on_attempt_start();
        reservation_.register_thread(tx);
        Node* node = nullptr;
        int level = kMaxHeight - 1;
        if (resume_node != nullptr &&
            boundary_.resume(tx) == resume_node) {
          node = resume_node;
          level = resume_level;
        } else {
          node = head_;
        }
        int hops = 0;
        for (;;) {
          Node* next = tx.read(node->next[level]);
          if (next != nullptr && next->key < key) {
            node = next;
            if (++hops >= window_) {
              if (fusion.try_fuse()) {
                hops = 0;  // boundary elided: a fresh window, same tx
                continue;
              }
              boundary_.park(tx, node);
              return Step{std::nullopt, node, level};
            }
            continue;
          }
          if (next != nullptr && next->key == key) {
            reservation_.release(tx);
            return Step{true, nullptr, 0};
          }
          if (level == 0) {
            reservation_.release(tx);
            return Step{false, nullptr, 0};
          }
          --level;
        }
      });
      fusion.on_commit();
      if (step.result.has_value()) {
        resume_node_ = nullptr;
        return *step.result;
      }
      resume_node_ = step.pause_node;
      resume_level_ = step.pause_level;
    }
  }

  bool insert(Key key) {
    const int height = random_height();
    return TM::atomically([&](Tx& tx) {
      reservation_.register_thread(tx);
      Node* preds[kMaxHeight];
      Node* succs[kMaxHeight];
      find_towers(tx, key, preds, succs);
      if (succs[0] != nullptr && succs[0]->key == key) return false;
      Node* fresh = tx.template alloc<Node>(key, height);
      for (int level = 0; level < height; ++level) {
        fresh->next[level] = succs[level];  // private until published
        tx.write(preds[level]->next[level], fresh);
      }
      return true;
    });
  }

  bool remove(Key key) {
    return TM::atomically([&](Tx& tx) {
      reservation_.register_thread(tx);
      Node* preds[kMaxHeight];
      Node* succs[kMaxHeight];
      find_towers(tx, key, preds, succs);
      Node* victim = succs[0];
      if (victim == nullptr || victim->key != key) return false;
      const int height = victim->height;  // immutable
      for (int level = 0; level < height; ++level) {
        // At levels where the victim is the successor, splice it out.
        if (tx.read(preds[level]->next[level]) == victim)
          tx.write(preds[level]->next[level], tx.read(victim->next[level]));
      }
      reservation_.revoke(tx, victim);
      tx.dealloc(victim);
      return true;
    });
  }

  std::size_t size() {
    return TM::atomically([&](Tx& tx) {
      std::size_t count = 0;
      for (Node* n = tx.read(head_->next[0]); n != nullptr;
           n = tx.read(n->next[0]))
        ++count;
      return count;
    });
  }

  /// Structural invariants: bottom level sorted; every level a
  /// subsequence of the level below. Single transaction.
  bool is_consistent() {
    return TM::atomically([&](Tx& tx) {
      // Bottom sorted.
      Key last = std::numeric_limits<Key>::min();
      for (Node* n = tx.read(head_->next[0]); n != nullptr;
           n = tx.read(n->next[0])) {
        const Key k = n->key;
        if (k <= last) return false;
        last = k;
      }
      // Each upper level's nodes appear at the level below.
      for (int level = 1; level < kMaxHeight; ++level) {
        Node* upper = tx.read(head_->next[level]);
        Node* lower = tx.read(head_->next[level - 1]);
        while (upper != nullptr) {
          while (lower != nullptr && lower != upper)
            lower = tx.read(lower->next[level - 1]);
          if (lower == nullptr) return false;  // upper node missing below
          upper = tx.read(upper->next[level]);
        }
      }
      return true;
    });
  }

  int window() const noexcept { return window_; }
  static const char* reservation_name() noexcept { return RR::name(); }

  /// Allow lookups to elide up to `budget` window boundaries per
  /// operation (see FusionState). Call before sharing across threads.
  void enable_fusion(int budget) { fusion_cap_ = budget; }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    int height;
    Node* next[kMaxHeight];
    Node(Key k, int h) : key(k), height(h) {
      for (auto& n : next) n = nullptr;
    }
  };

  /// Full descent within one transaction, recording the predecessor and
  /// successor at every level (update-phase helper).
  void find_towers(Tx& tx, Key key, Node** preds, Node** succs) {
    Node* node = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      Node* next = tx.read(node->next[level]);
      while (next != nullptr && next->key < key) {
        node = next;
        next = tx.read(node->next[level]);
      }
      preds[level] = node;
      succs[level] = next;
    }
  }

  int random_height() {
    thread_local util::Xoshiro256 rng(
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 10);
    int height = 1;
    while (height < kMaxHeight && (rng.next() & 3) == 0) ++height;  // p=1/4
    return height;
  }

  int window_;
  Node* head_;
  RR reservation_;
  WindowBoundary<RR> boundary_{reservation_};
  int fusion_cap_ = 0;
  static inline thread_local Node* resume_node_ = nullptr;
  static inline thread_local int resume_level_ = 0;
};

}  // namespace hohtm::ds
