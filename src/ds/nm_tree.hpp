#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "reclaim/gauge.hpp"
#include "util/per_thread.hpp"

namespace hohtm::ds {

/// Lock-free external binary search tree (Natarajan & Mittal, PPoPP 2014)
/// — the hand-crafted nonblocking baseline of Figure 7. As in the paper's
/// evaluation ("note that this algorithm leaks memory"), removed nodes are
/// not reclaimed during the run; every allocation is recorded in a
/// per-thread registry and released when the tree is destroyed, so test
/// binaries stay leak-clean while the Gauge shows the run-time backlog.
///
/// Edges (child words) carry two low bits: FLAG marks the edge to a leaf
/// whose deletion has been injected; TAG freezes an edge during cleanup.
/// A deletion injects a flag on the parent→leaf edge, then (with helpers)
/// swings the deepest untagged ancestor edge down to the leaf's sibling,
/// unlinking the tagged chain in one CAS.
template <class Key = long>
class NmTree {
 public:
  static constexpr Key kInf2 = std::numeric_limits<Key>::max();
  static constexpr Key kInf1 = kInf2 - 1;
  static constexpr Key kInf0 = kInf2 - 2;

  NmTree() {
    Node* leaf_inf0 = make(kInf0, nullptr, nullptr);
    Node* leaf_inf1 = make(kInf1, nullptr, nullptr);
    Node* leaf_inf2 = make(kInf2, nullptr, nullptr);
    Node* s = make(kInf1, leaf_inf0, leaf_inf1);
    root_ = make(kInf2, s, leaf_inf2);
  }

  NmTree(const NmTree&) = delete;
  NmTree& operator=(const NmTree&) = delete;

  ~NmTree() {
    for (auto& registry : registries_.live()) {
      for (Node* n : registry->nodes) {
        delete n;
        reclaim::Gauge::on_free();
      }
      registry->nodes.clear();
    }
  }

  bool contains(Key key) const {
    const Node* n = strip(root_->left.load(std::memory_order_acquire));
    while (!is_leaf(n)) {
      n = strip(key < n->key ? n->left.load(std::memory_order_acquire)
                             : n->right.load(std::memory_order_acquire));
    }
    return n->key == key;
  }

  bool insert(Key key) {
    for (;;) {
      SeekRecord s = seek(key);
      if (s.leaf->key == key) return false;
      Node* parent = s.parent;
      std::atomic<std::uintptr_t>* child_addr = child_toward(parent, key);
      const std::uintptr_t expected = pack(s.leaf);
      // Build: new router whose children are the old leaf and a new leaf.
      Node* fresh_leaf = make(key, nullptr, nullptr);
      Node* router =
          key < s.leaf->key
              ? make(s.leaf->key, fresh_leaf, s.leaf)
              : make(key, s.leaf, fresh_leaf);
      std::uintptr_t seen = expected;
      if (child_addr->compare_exchange_strong(seen, pack(router),
                                              std::memory_order_acq_rel))
        return true;
      // CAS failed: unregister nothing (registry owns them; they will be
      // freed at destruction) but help an obstructing delete if present.
      if (strip_node(seen) == s.leaf && (flagged(seen) || tagged(seen)))
        cleanup(key, s);
    }
  }

  bool remove(Key key) {
    bool injected = false;
    Node* target = nullptr;
    for (;;) {
      SeekRecord s = seek(key);
      if (!injected) {
        target = s.leaf;
        if (target->key != key) return false;
        std::atomic<std::uintptr_t>* child_addr = child_toward(s.parent, key);
        std::uintptr_t expected = pack(target);
        if (child_addr->compare_exchange_strong(expected,
                                                pack(target) | kFlag,
                                                std::memory_order_acq_rel)) {
          injected = true;
          if (cleanup(key, s)) return true;
        } else if (strip_node(expected) == target &&
                   (flagged(expected) || tagged(expected))) {
          cleanup(key, s);
        }
      } else {
        if (s.leaf != target) return true;  // a helper finished the unlink
        if (cleanup(key, s)) return true;
      }
    }
  }

  std::size_t size() const {
    return count_leaves(strip(root_->left.load(std::memory_order_acquire)));
  }

  /// Leaf-order invariant; quiescent use only.
  bool is_valid() const {
    Key last = std::numeric_limits<Key>::min();
    return check(strip(root_->left.load(std::memory_order_acquire)), &last);
  }

  static constexpr const char* name() noexcept { return "NM-LFLeak"; }

 private:
  static constexpr std::uintptr_t kFlag = 1;
  static constexpr std::uintptr_t kTag = 2;
  static constexpr std::uintptr_t kBits = kFlag | kTag;

  struct Node {
    Key key;
    std::atomic<std::uintptr_t> left{0};
    std::atomic<std::uintptr_t> right{0};
    Node(Key k, Node* l, Node* r)
        : key(k),
          left(reinterpret_cast<std::uintptr_t>(l)),
          right(reinterpret_cast<std::uintptr_t>(r)) {}
  };

  struct SeekRecord {
    Node* ancestor;
    Node* successor;
    Node* parent;
    Node* leaf;
  };

  static Node* strip(std::uintptr_t word) noexcept {
    return reinterpret_cast<Node*>(word & ~kBits);
  }
  static Node* strip_node(std::uintptr_t word) noexcept { return strip(word); }
  static bool flagged(std::uintptr_t word) noexcept { return word & kFlag; }
  static bool tagged(std::uintptr_t word) noexcept { return word & kTag; }
  static std::uintptr_t pack(Node* n) noexcept {
    return reinterpret_cast<std::uintptr_t>(n);
  }
  static bool is_leaf(const Node* n) noexcept {
    return n->left.load(std::memory_order_acquire) == 0;
  }

  Node* make(Key k, Node* l, Node* r) {
    Node* n = new Node(k, l, r);
    reclaim::Gauge::on_alloc();
    registries_.mine().nodes.push_back(n);
    return n;
  }

  std::atomic<std::uintptr_t>* child_toward(Node* n, Key key) const noexcept {
    return key < n->key ? &n->left : &n->right;
  }

  /// Algorithm 1 of the paper: descend to the leaf, tracking the deepest
  /// edge not tagged (ancestor→successor) for cleanup's promotion CAS.
  SeekRecord seek(Key key) const {
    SeekRecord s;
    s.ancestor = root_;
    s.successor = strip(root_->left.load(std::memory_order_acquire));
    s.parent = s.successor;  // node S
    std::uintptr_t parent_field =
        s.parent->left.load(std::memory_order_acquire);
    s.leaf = strip(parent_field);
    std::uintptr_t current_field =
        key < s.leaf->key ? s.leaf->left.load(std::memory_order_acquire)
                          : s.leaf->right.load(std::memory_order_acquire);
    Node* current = strip(current_field);
    while (current != nullptr) {
      if (!tagged(parent_field)) {
        s.ancestor = s.parent;
        s.successor = s.leaf;
      }
      s.parent = s.leaf;
      s.leaf = current;
      parent_field = current_field;
      current_field = key < current->key
                          ? current->left.load(std::memory_order_acquire)
                          : current->right.load(std::memory_order_acquire);
      current = strip(current_field);
    }
    return s;
  }

  /// Algorithm 4: freeze the sibling edge with a tag, then swing the
  /// ancestor's edge from the successor chain to the sibling.
  bool cleanup(Key key, const SeekRecord& s) {
    Node* ancestor = s.ancestor;
    Node* parent = s.parent;
    std::atomic<std::uintptr_t>* successor_addr =
        child_toward(ancestor, key);
    std::atomic<std::uintptr_t>* child_addr = child_toward(parent, key);
    std::atomic<std::uintptr_t>* sibling_addr =
        child_addr == &parent->left ? &parent->right : &parent->left;
    if (!flagged(child_addr->load(std::memory_order_acquire))) {
      // We are helping a delete that flagged the *other* child.
      sibling_addr = child_addr;
    }
    // Freeze the sibling edge (it survives the promotion).
    const std::uintptr_t sibling_word =
        sibling_addr->fetch_or(kTag, std::memory_order_acq_rel);
    // Promote: ancestor's edge drops the whole tagged chain, preserving
    // a pending flag on the sibling (its own delete will retry and land
    // at the new location).
    std::uintptr_t expected = pack(s.successor);
    return successor_addr->compare_exchange_strong(
        expected, (sibling_word | kTag) ^ kTag,  // clear TAG, keep FLAG
        std::memory_order_acq_rel);
  }

  std::size_t count_leaves(const Node* n) const {
    if (is_leaf(n)) return n->key < kInf0 ? 1 : 0;
    return count_leaves(strip(n->left.load(std::memory_order_acquire))) +
           count_leaves(strip(n->right.load(std::memory_order_acquire)));
  }

  bool check(const Node* n, Key* last) const {
    if (is_leaf(n)) {
      if (n->key < *last) return false;
      *last = n->key;
      return true;
    }
    return check(strip(n->left.load(std::memory_order_acquire)), last) &&
           check(strip(n->right.load(std::memory_order_acquire)), last);
  }

  struct Registry {
    std::vector<Node*> nodes;
  };

  Node* root_;
  util::PerThread<Registry> registries_;
};

}  // namespace hohtm::ds
