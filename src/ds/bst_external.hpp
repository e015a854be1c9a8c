#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "alloc/object.hpp"
#include "core/rr.hpp"
#include "tm/tm.hpp"
#include "util/random.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::ds {

/// Unbalanced *external* (leaf-oriented) binary search tree with
/// hand-over-hand transactions and revocable reservations (paper §5.4,
/// Figure 7).
///
/// Internal nodes are routers with immutable keys; elements live in the
/// leaves; every internal node has exactly two children. Insert splits a
/// leaf; Remove deletes a leaf *and its parent router*, promoting the
/// sibling. Both freed nodes are revoked. Because router keys never
/// change, no key-path revocation is needed — external trees are the
/// easy case for reservations, which is why in Figure 7 even the strict
/// algorithms recover most of their list-benchmark losses.
///
/// Sentinel scheme (Natarajan–Mittal): root router with key inf2 whose
/// right child is a leaf(inf2); its left child is a router key inf1 with
/// leaf(inf1) and leaf(inf2) children. All client keys must be < inf1.
template <class TM, class RR, class Key = long>
class BstExternal {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();
  static constexpr Key kInf2 = std::numeric_limits<Key>::max();
  static constexpr Key kInf1 = kInf2 - 1;

  template <class... RrArgs>
  explicit BstExternal(int window = 16, bool scatter = true,
                       RrArgs&&... rr_args)
      : window_(window),
        scatter_(scatter),
        reservation_(std::forward<RrArgs>(rr_args)...) {
    Node* leaf_inf1 = make_raw(kInf1, nullptr, nullptr);
    Node* leaf_inf2a = make_raw(kInf2, nullptr, nullptr);
    Node* leaf_inf2b = make_raw(kInf2, nullptr, nullptr);
    Node* s = make_raw(kInf1, leaf_inf1, leaf_inf2a);
    root_ = make_raw(kInf2, s, leaf_inf2b);
  }

  BstExternal(const BstExternal&) = delete;
  BstExternal& operator=(const BstExternal&) = delete;

  ~BstExternal() { destroy_subtree(root_); }

  bool insert(Key key) {
    return apply<false>(
        key, [](Tx&, Node*, Node*, Node*) { return false; },
        [&](Tx& tx, Node*, Node* parent, Node* leaf) {
          const Key leaf_key = leaf->key;
          Node* fresh_leaf = tx.template alloc<Node>(key, nullptr, nullptr);
          // New router keyed by the larger of the two, smaller key left.
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
          // Promote the sibling over the parent router; free both the
          // leaf and the router, revoking each (either may be reserved by
          // a paused traversal).
          Node* sibling = tx.read(parent->left) == leaf
                              ? tx.read(parent->right)
                              : tx.read(parent->left);
          replace_child(tx, gparent, parent, sibling);
          reservation_.revoke(tx, parent);
          reservation_.revoke(tx, leaf);
          tx.dealloc(parent);
          tx.dealloc(leaf);
          return true;
        },
        [](Tx&, Node*, Node*, Node*) { return false; });
  }

  std::size_t size() {
    return TM::atomically([&](Tx& tx) {
      return count_real_leaves(tx, tx.read(root_->left));
    });
  }

  /// Structural invariants: full binary tree, leaves in order, routing
  /// keys consistent. Single transaction.
  bool is_valid() {
    return TM::atomically([&](Tx& tx) {
      Key last = std::numeric_limits<Key>::min();
      return check_subtree(tx, root_, &last);
    });
  }

  int window() const noexcept { return window_; }
  static const char* reservation_name() noexcept { return RR::name(); }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    Node* left;   // nullptr iff leaf (internal nodes have both children)
    Node* right;
    Node(Key k, Node* l, Node* r) : key(k), left(l), right(r) {}
  };

  Node* make_raw(Key k, Node* l, Node* r) {
    reclaim::Gauge::on_alloc();
    return alloc::create<Node>(k, l, r);
  }

  /// Traversal: descend through routers, reserving the frontier router at
  /// window boundaries; the found/not-found split happens at the leaf.
  /// Callbacks receive (grandparent, parent, leaf).
  ///
  /// kNeedsGparent (Remove only): a resumed window that reaches the leaf
  /// in a single step has no grandparent in hand; the operation then
  /// completes with a full root descent inside the same transaction —
  /// rare (one window boundary position in `window_`) and still atomic.
  template <bool kNeedsGparent, class FFound, class FNotFound>
  bool apply(Key key, FFound&& on_found, FNotFound&& on_not_found) {
    for (;;) {
      const std::optional<bool> outcome =
          TM::atomically([&](Tx& tx) -> std::optional<bool> {
            reservation_.register_thread(tx);
            Node* parent = static_cast<Node*>(
                const_cast<void*>(reservation_.get(tx)));
            int used = 0;
            Node* gparent = nullptr;
            const bool resumed = parent != nullptr;
            if (!resumed) {
              parent = root_;
              used = initial_scatter();
            }
            Node* curr = key < parent->key ? tx.read(parent->left)
                                           : tx.read(parent->right);
            while (tx.read(curr->left) != nullptr && used < window_) {
              gparent = parent;
              parent = curr;
              curr = key < curr->key ? tx.read(curr->left)
                                     : tx.read(curr->right);
              ++used;
            }
            if (tx.read(curr->left) != nullptr) {
              // Window exhausted on a router: hand over.
              reservation_.release(tx);
              reservation_.reserve(tx, curr);
              return std::nullopt;
            }
            if (kNeedsGparent && gparent == nullptr && parent != root_) {
              reservation_.release(tx);
              return from_root(tx, key, on_found, on_not_found);
            }
            if (curr->key == key) {
              const bool result = on_found(tx, gparent, parent, curr);
              reservation_.release(tx);
              return result;
            }
            const bool result = on_not_found(tx, gparent, parent, curr);
            reservation_.release(tx);
            return result;
          });
      if (outcome.has_value()) return *outcome;
    }
  }

  /// Complete the operation in this transaction with a full descent from
  /// the root, tracking (gparent, parent, leaf). Used when a resumed
  /// window lands on a leaf without a grandparent in hand.
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
    if (left == nullptr)
      return node->key < kInf1 ? 1 : 0;
    return count_real_leaves(tx, left) +
           count_real_leaves(tx, tx.read(node->right));
  }

  bool check_subtree(Tx& tx, Node* node, Key* last) {
    Node* left = tx.read(node->left);
    Node* right = tx.read(node->right);
    if (left == nullptr) {
      if (right != nullptr) return false;  // half-internal node
      const Key k = node->key;
      if (k < *last) return false;  // leaves out of order
      *last = k;
      return true;
    }
    if (right == nullptr) return false;
    return check_subtree(tx, left, last) && check_subtree(tx, right, last);
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
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 4);
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(window_)));
  }

  int window_;
  bool scatter_;
  Node* root_;
  RR reservation_;
};

}  // namespace hohtm::ds
