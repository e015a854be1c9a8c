#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "alloc/object.hpp"
#include "ds/window_policy.hpp"
#include "reclaim/gauge.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "tm/tm.hpp"
#include "util/random.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::ds {

/// External unbalanced BST with hand-over-hand transactions and
/// hazard-pointer reclamation — the TMHP series of Figure 7.
///
/// Traversal mirrors BstExternal; the pause node is protected by a hazard
/// pointer instead of a reservation, and each router carries an
/// `unlinked` flag (set transactionally by the Remove that excises it) so
/// a resumed window knows whether continuing from it is meaningful.
/// Remove retires the leaf and its parent router to the hazard domain;
/// reclamation is deferred to batched scans.
template <class TM, class Key = long>
class BstExternalTmhp {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();
  static constexpr Key kInf2 = std::numeric_limits<Key>::max();
  static constexpr Key kInf1 = kInf2 - 1;

  explicit BstExternalTmhp(int window = 16, bool scatter = true,
                           std::size_t scan_threshold = 64)
      : window_(window),
        scatter_(scatter),
        hazards_(scan_threshold, &TM::quiesce_before_free) {
    Node* leaf_inf1 = make_raw(kInf1, nullptr, nullptr);
    Node* leaf_inf2a = make_raw(kInf2, nullptr, nullptr);
    Node* leaf_inf2b = make_raw(kInf2, nullptr, nullptr);
    Node* s = make_raw(kInf1, leaf_inf1, leaf_inf2a);
    root_ = make_raw(kInf2, s, leaf_inf2b);
  }

  BstExternalTmhp(const BstExternalTmhp&) = delete;
  BstExternalTmhp& operator=(const BstExternalTmhp&) = delete;

  ~BstExternalTmhp() { destroy_subtree(root_); }

  bool insert(Key key) {
    return apply<false>(
        key, [](Tx&, Node*, Node*, Node*) { return false; },
        [&](Tx& tx, Node*, Node* parent, Node* leaf) {
          const Key leaf_key = leaf->key;
          Node* fresh_leaf = tx.template alloc<Node>(key, nullptr, nullptr);
          Node* router =
              key < leaf_key
                  ? tx.template alloc<Node>(leaf_key, fresh_leaf, leaf)
                  : tx.template alloc<Node>(key, leaf, fresh_leaf);
          replace_child(tx, parent, leaf, router);
          return true;
        });
  }

  bool contains(Key key) {
    return apply<false>(
        key, [](Tx&, Node*, Node*, Node*) { return true; },
        [](Tx&, Node*, Node*, Node*) { return false; });
  }

  bool remove(Key key) {
    return apply<true>(
        key,
        [&](Tx& tx, Node* gparent, Node* parent, Node* leaf) {
          Node* sibling = tx.read(parent->left) == leaf
                              ? tx.read(parent->right)
                              : tx.read(parent->left);
          replace_child(tx, gparent, parent, sibling);
          tx.write(parent->unlinked, 1L);
          tx.write(leaf->unlinked, 1L);
          retired_a_ = parent;
          retired_b_ = leaf;
          return true;
        },
        [](Tx&, Node*, Node*, Node*) { return false; });
  }

  std::size_t size() {
    return TM::atomically([&](Tx& tx) {
      return count_real_leaves(tx, tx.read(root_->left));
    });
  }

  std::size_t reclaimer_backlog() const noexcept {
    return hazards_.total_backlog();
  }

  static constexpr const char* name() noexcept { return "TMHP"; }
  int window() const noexcept { return window_; }

  /// Allow traversals to elide up to `budget` window boundaries per
  /// operation (see FusionState; RR-agnostic, so the hazard-pointer
  /// series fuses exactly like the reservation ones). Call before
  /// sharing across threads.
  void enable_fusion(int budget) { fusion_cap_ = budget; }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    Node* left;
    Node* right;
    long unlinked = 0;
    Node(Key k, Node* l, Node* r) : key(k), left(l), right(r) {}
  };

  static constexpr std::size_t kHoldSlot = 0;
  static constexpr std::size_t kNextSlot = 1;

  Node* make_raw(Key k, Node* l, Node* r) {
    reclaim::Gauge::on_alloc();
    return alloc::create<Node>(k, l, r);
  }

  static void delete_node(void* p) noexcept {
    alloc::destroy(static_cast<Node*>(p));
    reclaim::Gauge::on_free();
  }

  template <bool kNeedsGparent, class FFound, class FNotFound>
  bool apply(Key key, FFound&& on_found, FNotFound&& on_not_found) {
    FusionState fusion(fusion_cap_);
    Node* resume = nullptr;
    for (;;) {
      retired_a_ = retired_b_ = nullptr;
      struct Step {
        std::optional<bool> result;
        Node* next_resume = nullptr;
      };
      const Step step = TM::atomically([&](Tx& tx) -> Step {
        fusion.on_attempt_start();
        retired_a_ = retired_b_ = nullptr;
        Node* parent = resume;
        int used = 0;
        Node* gparent = nullptr;
        if (parent != nullptr && tx.read(parent->unlinked) != 0)
          parent = nullptr;
        const bool resumed = parent != nullptr;
        if (!resumed) {
          parent = root_;
          used = initial_scatter();
        }
        Node* curr = key < parent->key ? tx.read(parent->left)
                                       : tx.read(parent->right);
        while (tx.read(curr->left) != nullptr) {
          if (used >= window_) {
            if (!fusion.try_fuse()) break;
            used = 0;  // boundary elided: a fresh window, same tx
          }
          gparent = parent;
          parent = curr;
          curr = key < curr->key ? tx.read(curr->left) : tx.read(curr->right);
          ++used;
        }
        if (tx.read(curr->left) != nullptr) {
          hazards_.protect(kNextSlot, curr);
          return Step{std::nullopt, curr};
        }
        if (kNeedsGparent && gparent == nullptr && parent != root_) {
          return Step{from_root(tx, key, on_found, on_not_found), nullptr};
        }
        if (curr->key == key)
          return Step{on_found(tx, gparent, parent, curr), nullptr};
        return Step{on_not_found(tx, gparent, parent, curr), nullptr};
      });
      fusion.on_commit();
      if (retired_a_ != nullptr) {
        hazards_.retire(retired_a_, &delete_node);
        hazards_.retire(retired_b_, &delete_node);
        retired_a_ = retired_b_ = nullptr;
      }
      if (step.result.has_value()) {
        hazards_.clear_all();
        return *step.result;
      }
      hazards_.protect(kHoldSlot, step.next_resume);
      hazards_.clear(kNextSlot);
      resume = step.next_resume;
    }
  }

  template <class FFound, class FNotFound>
  std::optional<bool> from_root(Tx& tx, Key key, FFound&& on_found,
                                FNotFound&& on_not_found) {
    Node* gparent = nullptr;
    Node* parent = root_;
    Node* curr = tx.read(root_->left);
    while (tx.read(curr->left) != nullptr) {
      gparent = parent;
      parent = curr;
      curr = key < curr->key ? tx.read(curr->left) : tx.read(curr->right);
    }
    if (curr->key == key) return on_found(tx, gparent, parent, curr);
    return on_not_found(tx, gparent, parent, curr);
  }

  void replace_child(Tx& tx, Node* parent, Node* old_child, Node* new_child) {
    if (tx.read(parent->left) == old_child)
      tx.write(parent->left, new_child);
    else
      tx.write(parent->right, new_child);
  }

  std::size_t count_real_leaves(Tx& tx, Node* node) {
    Node* left = tx.read(node->left);
    if (left == nullptr) return node->key < kInf1 ? 1 : 0;
    return count_real_leaves(tx, left) +
           count_real_leaves(tx, tx.read(node->right));
  }

  void destroy_subtree(Node* node) {
    if (node == nullptr) return;
    destroy_subtree(node->left);
    destroy_subtree(node->right);
    alloc::destroy(node);
    reclaim::Gauge::on_free();
  }

  int initial_scatter() {
    if (!scatter_ || window_ <= 1 || window_ == kUnbounded) return 0;
    thread_local util::Xoshiro256 rng(
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 8);
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(window_)));
  }

  int window_;
  bool scatter_;
  Node* root_;
  int fusion_cap_ = 0;
  reclaim::HazardDomain hazards_;
  static inline thread_local Node* retired_a_ = nullptr;
  static inline thread_local Node* retired_b_ = nullptr;
};

}  // namespace hohtm::ds
