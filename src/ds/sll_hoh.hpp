#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "alloc/object.hpp"
#include "core/rr.hpp"
#include "ds/window_policy.hpp"
#include "ds/window_tuner.hpp"
#include "tm/tm.hpp"
#include "util/random.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::ds {

/// Sorted singly-linked set with hand-over-hand transactions and revocable
/// reservations — paper Listing 5 and Figure 1.
///
/// An operation traverses at most `window` nodes per transaction; at each
/// window boundary it reserves its current node, commits, and the next
/// transaction resumes from the reservation (or restarts from the head if
/// the reservation was revoked by a concurrent Remove that freed the
/// node). Removal unlinks, revokes, and frees the node in one transaction:
/// reclamation is immediate and precise.
///
/// Instantiating with RR = rr::RrNull and window = kUnbounded yields the
/// paper's single-big-transaction ("HTM") baseline through this same code.
template <class TM, class RR, class Key = long>
class SllHoh {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  /// `window` is the paper's W; `scatter` randomizes the length of the
  /// first window per operation so threads do not reserve the same nodes
  /// in lock step (important for RR-XO, Section 5.2).
  template <class... RrArgs>
  explicit SllHoh(int window = 16, bool scatter = true, RrArgs&&... rr_args)
      : window_(window),
        scatter_(scatter),
        reservation_(std::forward<RrArgs>(rr_args)...) {
    head_ = alloc::create<Node>(std::numeric_limits<Key>::min(), nullptr);
    reclaim::Gauge::on_alloc();
  }

  SllHoh(const SllHoh&) = delete;
  SllHoh& operator=(const SllHoh&) = delete;

  ~SllHoh() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      alloc::destroy(n);
      reclaim::Gauge::on_free();
      n = next;
    }
  }

  /// True if `key` was inserted (false if already present).
  bool insert(Key key) {
    return apply(
        key, [](Tx&, Node*, Node*) { return false; },
        [&](Tx& tx, Node* prev, Node* curr) {
          Node* fresh = tx.template alloc<Node>(key, curr);
          tx.write(prev->next, fresh);
          return true;
        });
  }

  /// True if `key` was removed. The matching node is unlinked, revoked,
  /// and handed to the allocator in the same transaction.
  bool remove(Key key) {
    return apply(
        key,
        [&](Tx& tx, Node* prev, Node* curr) {
          rr::SiteScope site(tm::RevokeSite::kListRemove);
          tx.write(prev->next, tx.read(curr->next));
          reservation_.revoke(tx, curr);
          tx.dealloc(curr);
          return true;
        },
        [](Tx&, Node*, Node*) { return false; });
  }

  /// True if `key` is in the set.
  bool contains(Key key) {
    return apply(
        key, [](Tx&, Node*, Node*) { return true; },
        [](Tx&, Node*, Node*) { return false; });
  }

  /// Number of elements; runs as one transaction (test/diagnostic use).
  std::size_t size() {
    return TM::atomically([&](Tx& tx) {
      std::size_t count = 0;
      for (Node* n = tx.read(head_->next); n != nullptr; n = tx.read(n->next))
        ++count;
      return count;
    });
  }

  /// Checks the strictly-sorted invariant; single transaction.
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

  int window() const noexcept { return window_; }
  static const char* reservation_name() noexcept { return RR::name(); }

  /// Switch the list to contention-driven per-thread window tuning
  /// (see WindowTuner). Call before sharing the list across threads.
  void enable_adaptive_window(int min_window, int max_window) {
    tuner_ = std::make_unique<WindowTuner>(min_window, max_window,
                                           fusion_cap_);
  }

  /// Allow traversals to elide up to `budget` window boundaries per
  /// operation (see FusionState). With adaptive tuning on, the budget
  /// sits behind the tuner's clean-streak contention gate; without a
  /// tuner it is granted unconditionally (tests, known-quiet loads).
  /// Call before sharing the list across threads.
  void enable_fusion(int budget) {
    fusion_cap_ = budget;
    if (tuner_) tuner_->set_fusion_cap(budget);
  }

  /// The calling thread's current adaptive window (diagnostics); the
  /// static window when tuning is off.
  int effective_window() noexcept {
    return tuner_ ? tuner_->current() : window_;
  }

  /// Test-only: invoked between the transactions of one hand-over-hand
  /// operation (right after a window boundary commits, before the next
  /// transaction begins). Lets a test inject contention events into
  /// tm::Stats at a point where the operation's tuner will observe them,
  /// without depending on scheduler timing. Not thread-safe against
  /// concurrent operations; install before sharing the list.
  void set_handover_hook_for_testing(std::function<void()> hook) {
    handover_hook_ = std::move(hook);
  }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    Node* next;
    Node(Key k, Node* n) : key(k), next(n) {}
  };

  /// Listing 5's Apply: the shared traversal skeleton. `on_found` runs
  /// with (prev, curr) where curr->key == key; `on_not_found` runs where
  /// curr is the first node with a greater key (or null), so an insert
  /// can link between prev and curr.
  template <class FFound, class FNotFound>
  bool apply(Key key, FFound&& on_found, FNotFound&& on_not_found) {
    const WindowPlan plan =
        tuner_ ? tuner_->plan_op() : WindowPlan{window_, fusion_cap_};
    FusionState fusion(plan.fusion_budget);
    struct Feedback {
      WindowTuner* tuner;
      ~Feedback() {
        if (tuner != nullptr) tuner->observe();
      }
    } feedback{tuner_.get()};
    bool handed_over = false;
    rr::Ref parked = nullptr;  // what the previous window reserved
    for (;;) {
      bool position_lost = false;
      rr::Ref lost = nullptr;
      const std::optional<bool> outcome =
          TM::atomically([&](Tx& tx) -> std::optional<bool> {
            fusion.on_attempt_start();
            reservation_.register_thread(tx);
            // Initialize: resume from the reservation, or start at head.
            Node* prev = resume_point(tx);
            position_lost = handed_over && prev == nullptr;
            if (position_lost) lost = parked;
            int used = 0;
            if (prev == nullptr) {
              prev = head_;
              used = initial_scatter(plan.window);
            }
            Node* curr = tx.read(prev->next);
            // Traverse, fusing past window boundaries while budget lasts.
            while (curr != nullptr && curr->key < key) {
              if (used >= plan.window) {
                if (!fusion.try_fuse()) break;
                used = 0;  // boundary elided: a fresh window, same tx
              }
              prev = curr;
              curr = tx.read(curr->next);
              ++used;
            }
            // Match.
            if (curr != nullptr && curr->key == key) {
              const bool result = on_found(tx, prev, curr);
              reservation_.release(tx);
              return result;
            }
            // No match.
            if (curr == nullptr || curr->key > key) {
              const bool result = on_not_found(tx, prev, curr);
              reservation_.release(tx);
              return result;
            }
            // Window exhausted: hand over to the next transaction.
            boundary_.park(tx, curr);
            parked = curr;
            return std::nullopt;
          });
      fusion.on_commit();
      if (position_lost) WindowBoundary<RR>::note_position_lost(lost);
      if (outcome.has_value()) return *outcome;
      handed_over = true;
      if (handover_hook_) handover_hook_();
    }
  }

  Node* resume_point(Tx& tx) {
    return static_cast<Node*>(const_cast<void*>(boundary_.resume(tx)));
  }

  int initial_scatter(int window) {
    if (!scatter_ || window <= 1 || window == kUnbounded) return 0;
    thread_local util::Xoshiro256 rng(
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 1);
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(window)));
  }

  int window_;
  bool scatter_;
  Node* head_;
  RR reservation_;
  WindowBoundary<RR> boundary_{reservation_};
  int fusion_cap_ = 0;
  std::unique_ptr<WindowTuner> tuner_;
  std::function<void()> handover_hook_;
};

}  // namespace hohtm::ds
