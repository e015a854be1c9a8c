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

/// Doubly linked set with hand-over-hand transactions and hazard-pointer
/// reclamation: the TMHP series of Figures 3 and 5. Like the DllHoh
/// remove optimization, unlinking uses the victim's own prev/next
/// pointers; reclamation is deferred through the hazard domain.
template <class TM, class Key = long>
class DllTmhp {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  explicit DllTmhp(int window = 16, bool scatter = true,
                   std::size_t scan_threshold = 64)
      : window_(window),
        scatter_(scatter),
        hazards_(scan_threshold, &TM::quiesce_before_free) {
    head_ = alloc::create<Node>(std::numeric_limits<Key>::min(), nullptr,
                                nullptr);
    reclaim::Gauge::on_alloc();
  }

  DllTmhp(const DllTmhp&) = delete;
  DllTmhp& operator=(const DllTmhp&) = delete;

  ~DllTmhp() {
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
          Node* fresh = tx.template alloc<Node>(key, prev, curr);
          tx.write(prev->next, fresh);
          if (curr != nullptr) tx.write(curr->prev, fresh);
          return true;
        });
  }

  bool remove(Key key) {
    return apply(
        key,
        [&](Tx& tx, Node*, Node* curr) {
          Node* before = tx.read(curr->prev);
          Node* after = tx.read(curr->next);
          tx.write(before->next, after);
          if (after != nullptr) tx.write(after->prev, before);
          tx.write(curr->unlinked, 1L);
          retired_in_tx_ = curr;
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

  bool is_consistent() {
    return TM::atomically([&](Tx& tx) {
      Node* previous = head_;
      for (Node* n = tx.read(head_->next); n != nullptr;
           n = tx.read(n->next)) {
        if (tx.read(n->prev) != previous) return false;
        previous = n;
      }
      return true;
    });
  }

  std::size_t reclaimer_backlog() const noexcept {
    return hazards_.total_backlog();
  }

  static constexpr const char* name() noexcept { return "TMHP"; }
  int window() const noexcept { return window_; }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    Node* prev;
    Node* next;
    long unlinked = 0;
    Node(Key k, Node* p, Node* n) : key(k), prev(p), next(n) {}
  };

  static constexpr std::size_t kHoldSlot = 0;
  static constexpr std::size_t kNextSlot = 1;

  static void delete_node(void* p) noexcept {
    alloc::destroy(static_cast<Node*>(p));
    reclaim::Gauge::on_free();
  }

  template <class FFound, class FNotFound>
  bool apply(Key key, FFound&& on_found, FNotFound&& on_not_found) {
    Node* resume = nullptr;
    for (;;) {
      retired_in_tx_ = nullptr;
      struct Step {
        std::optional<bool> result;
        Node* next_resume = nullptr;
      };
      const Step step = TM::atomically([&](Tx& tx) -> Step {
        retired_in_tx_ = nullptr;
        Node* prev = resume;
        int used = 0;
        if (prev != nullptr && tx.read(prev->unlinked) != 0) prev = nullptr;
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
        hazards_.protect(kNextSlot, curr);
        return Step{std::nullopt, curr};
      });
      if (retired_in_tx_ != nullptr) {
        hazards_.retire(retired_in_tx_, &delete_node);
        retired_in_tx_ = nullptr;
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

  int initial_scatter() {
    if (!scatter_ || window_ <= 1 || window_ == kUnbounded) return 0;
    thread_local util::Xoshiro256 rng(
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 7);
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(window_)));
  }

  int window_;
  bool scatter_;
  Node* head_;
  reclaim::HazardDomain hazards_;
  static inline thread_local Node* retired_in_tx_ = nullptr;
};

}  // namespace hohtm::ds
