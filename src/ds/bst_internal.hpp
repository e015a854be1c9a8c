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

/// Unbalanced *internal* binary search tree with hand-over-hand
/// transactions and revocable reservations — paper Section 4.3.
///
/// Lookup and Insert are singly-linked-list-like: traverse up to `window`
/// nodes per transaction, reserving the frontier node at each boundary.
/// Remove is where the subtlety lives:
///
///  - zero/one child: unlink like a list; revoke only the freed node.
///  - two children: the removed node's key is *overwritten* with the key
///    of the leftmost descendant of its right child ("successor"), and the
///    successor's node is extracted. Any thread whose reservation lies on
///    the path from the removed node down to the successor could resume
///    below the successor's new (higher) position and wrongly miss it, so
///    every node on that path is revoked (the paper's sufficient
///    condition). This makes Remove the O(path * RevokeCost) operation
///    that separates the reservation algorithms in Figure 6.
template <class TM, class RR, class Key = long>
class BstInternal {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  template <class... RrArgs>
  explicit BstInternal(int window = 16, bool scatter = true,
                       RrArgs&&... rr_args)
      : window_(window),
        scatter_(scatter),
        reservation_(std::forward<RrArgs>(rr_args)...) {
    // Sentinel root: key +inf, real tree hangs off its left child. Client
    // keys must be strictly below the sentinel key.
    root_ = alloc::create<Node>(std::numeric_limits<Key>::max(), nullptr,
                                nullptr);
    reclaim::Gauge::on_alloc();
  }

  BstInternal(const BstInternal&) = delete;
  BstInternal& operator=(const BstInternal&) = delete;

  ~BstInternal() {
    destroy_subtree(root_);
  }

  bool insert(Key key) {
    return apply(
        key, [](Tx&, Node*, Node*) { return false; },
        [&](Tx& tx, Node* prev, Node*) {
          Node* fresh = tx.template alloc<Node>(key, nullptr, nullptr);
          set_child(tx, prev, key, fresh);
          return true;
        });
  }

  bool contains(Key key) {
    return apply(
        key, [](Tx&, Node*, Node*) { return true; },
        [](Tx&, Node*, Node*) { return false; });
  }

  bool remove(Key key) {
    return apply(
        key,
        [&](Tx& tx, Node* prev, Node* curr) {
          remove_node(tx, prev, curr);
          return true;
        },
        [](Tx&, Node*, Node*) { return false; });
  }

  std::size_t size() {
    return TM::atomically(
        [&](Tx& tx) { return count_subtree(tx, tx.read(root_->left)); });
  }

  /// BST-order invariant over the whole tree; single transaction.
  bool is_valid_bst() {
    return TM::atomically([&](Tx& tx) {
      return check_subtree(tx, tx.read(root_->left),
                           std::numeric_limits<Key>::min(),
                           std::numeric_limits<Key>::max());
    });
  }

  int window() const noexcept { return window_; }
  static const char* reservation_name() noexcept { return RR::name(); }

 private:
  struct Node {
    // Mutable and read transactionally, unlike every other structure's
    // node key (docs/ALGORITHMS.md, "Immutable fields are read plainly"):
    // a two-child remove copies the successor's key into this node in
    // place (remove_node), so the key changes after publication.
    Key key;
    Node* left;
    Node* right;
    Node(Key k, Node* l, Node* r) : key(k), left(l), right(r) {}
  };

  /// Traversal skeleton shared by all operations. Resumes from the
  /// reservation when one is held; the reserved node is known to be alive
  /// (freeing requires revocation) and its key current (key-changing
  /// removals revoke the whole affected path).
  template <class FFound, class FNotFound>
  bool apply(Key key, FFound&& on_found, FNotFound&& on_not_found) {
    for (;;) {
      const std::optional<bool> outcome =
          TM::atomically([&](Tx& tx) -> std::optional<bool> {
            reservation_.register_thread(tx);
            Node* prev = static_cast<Node*>(
                const_cast<void*>(reservation_.get(tx)));
            int used = 0;
            if (prev == nullptr) {
              prev = root_;
              used = initial_scatter();
            }
            Node* curr = child_toward(tx, prev, key);
            while (curr != nullptr && used < window_) {
              const Key ck = tx.read(curr->key);
              if (ck == key) break;
              prev = curr;
              curr = key < ck ? tx.read(curr->left) : tx.read(curr->right);
              ++used;
            }
            if (curr == nullptr) {
              const bool result = on_not_found(tx, prev, curr);
              reservation_.release(tx);
              return result;
            }
            if (tx.read(curr->key) == key) {
              const bool result = on_found(tx, prev, curr);
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

  /// Direction from `parent` toward `key`. The sentinel root always
  /// routes left.
  Node* child_toward(Tx& tx, Node* parent, Key key) {
    if (parent == root_) return tx.read(root_->left);
    return key < tx.read(parent->key) ? tx.read(parent->left)
                                      : tx.read(parent->right);
  }

  void set_child(Tx& tx, Node* parent, Key key, Node* child) {
    if (parent == root_ || key < tx.read(parent->key))
      tx.write(parent->left, child);
    else
      tx.write(parent->right, child);
  }

  /// Replace parent's edge to `old_child` (found by identity) with
  /// `new_child`.
  void replace_child(Tx& tx, Node* parent, Node* old_child, Node* new_child) {
    if (tx.read(parent->left) == old_child)
      tx.write(parent->left, new_child);
    else
      tx.write(parent->right, new_child);
  }

  void remove_node(Tx& tx, Node* prev, Node* curr) {
    Node* left = tx.read(curr->left);
    Node* right = tx.read(curr->right);
    if (left == nullptr || right == nullptr) {
      // List-like case: splice the (single or absent) child up. Only the
      // freed node needs revoking: a reservation on the parent resumes
      // above the splice and re-reads the new child pointer; one on the
      // child cannot be searching for the removed key (paper Section 4.3).
      Node* child = left != nullptr ? left : right;
      replace_child(tx, prev, curr, child);
      reservation_.revoke(tx, curr);
      tx.dealloc(curr);
      return;
    }
    // Two children: swap in the successor's key, extract the successor,
    // and revoke the whole path from curr to the successor inclusive.
    reservation_.revoke(tx, curr);
    Node* succ_parent = curr;
    Node* succ = right;
    for (;;) {
      Node* next_left = tx.read(succ->left);
      if (next_left == nullptr) break;
      reservation_.revoke(tx, succ);  // interior node of the v..l path
      succ_parent = succ;
      succ = next_left;
    }
    reservation_.revoke(tx, succ);  // the node being extracted
    tx.write(curr->key, tx.read(succ->key));
    Node* promoted = tx.read(succ->right);
    if (succ_parent == curr)
      tx.write(curr->right, promoted);
    else
      tx.write(succ_parent->left, promoted);
    tx.dealloc(succ);
  }

  std::size_t count_subtree(Tx& tx, Node* node) {
    if (node == nullptr) return 0;
    return 1 + count_subtree(tx, tx.read(node->left)) +
           count_subtree(tx, tx.read(node->right));
  }

  bool check_subtree(Tx& tx, Node* node, Key lo, Key hi) {
    if (node == nullptr) return true;
    const Key k = tx.read(node->key);
    if (k < lo || k > hi) return false;
    return check_subtree(tx, tx.read(node->left), lo, k - 1) &&
           check_subtree(tx, tx.read(node->right), k, hi);
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
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 3);
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(window_)));
  }

  int window_;
  bool scatter_;
  Node* root_;
  RR reservation_;
};

}  // namespace hohtm::ds
