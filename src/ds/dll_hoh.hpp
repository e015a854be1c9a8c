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

/// Sorted doubly-linked set with hand-over-hand transactions and revocable
/// reservations — paper Section 4.2.
///
/// Traversal is identical to the singly linked list. The difference is in
/// Remove: because a node's predecessor and successor are both reachable
/// from the node itself, a Remove can find-and-reserve the victim in one
/// transaction and unlink-revoke-free it in a *second* transaction. This
/// keeps the writing transaction small and keeps Revoke out of traversing
/// transactions.
///
/// The optimization is only sound for *strict* reservation algorithms:
/// there, "Get returned nil" proves a concurrent Remove revoked (and
/// removed) this exact node, so the operation can return false. With a
/// relaxed algorithm the nil may be spurious, so the operation must retry
/// from scratch (the paper calls this out explicitly). RrNull (the
/// single-transaction baseline) skips the second transaction entirely.
template <class TM, class RR, class Key = long>
class DllHoh {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  template <class... RrArgs>
  explicit DllHoh(int window = 16, bool scatter = true, RrArgs&&... rr_args)
      : window_(window),
        scatter_(scatter),
        reservation_(std::forward<RrArgs>(rr_args)...) {
    head_ = alloc::create<Node>(std::numeric_limits<Key>::min(), nullptr,
                                nullptr);
    reclaim::Gauge::on_alloc();
  }

  DllHoh(const DllHoh&) = delete;
  DllHoh& operator=(const DllHoh&) = delete;

  ~DllHoh() {
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
        key, [](Tx&, Node*, Node*) { return FindOutcome::found_no_change(); },
        [&](Tx& tx, Node* prev, Node* curr) {
          Node* fresh = tx.template alloc<Node>(key, prev, curr);
          tx.write(prev->next, fresh);
          if (curr != nullptr) tx.write(curr->prev, fresh);
          return FindOutcome::done(true);
        }).value;
  }

  bool contains(Key key) {
    return apply(
        key, [](Tx&, Node*, Node*) { return FindOutcome::done(true); },
        [](Tx&, Node*, Node*) { return FindOutcome::done(false); }).value;
  }

  bool remove(Key key) {
    for (;;) {
      const FindOutcome found = apply(
          key,
          [&](Tx& tx, Node* prev, Node* curr) {
            if constexpr (!RR::kReal) {
              // Single-transaction baseline: unlink right here.
              unlink_revoke_free(tx, prev, curr);
              return FindOutcome::done(true);
            } else {
              // Two-phase removal: hold the victim via the reservation
              // and finish in a dedicated small transaction.
              boundary_.park(tx, curr);
              return FindOutcome::two_phase();
            }
          },
          [](Tx&, Node*, Node*) { return FindOutcome::done(false); });
      if (!found.needs_second_phase) return found.value;

      bool victim_lost = false;
      const std::optional<bool> unlinked =
          TM::atomically([&](Tx& tx) -> std::optional<bool> {
            reservation_.register_thread(tx);
            Node* victim = static_cast<Node*>(
                const_cast<void*>(boundary_.resume(tx)));
            victim_lost = victim == nullptr;
            if (victim == nullptr) {
              reservation_.release(tx);
              if constexpr (RR::kStrict) {
                // Only an actual Revoke(victim) can have cleared a strict
                // reservation: a concurrent Remove beat us to this node,
                // and our operation serializes right after it.
                return false;
              } else {
                return std::nullopt;  // possibly spurious: retry the find
              }
            }
            Node* prev = tx.read(victim->prev);
            unlink_revoke_free(tx, prev, victim);
            reservation_.release(tx);
            return true;
          });
      if constexpr (RR::kReal) {
        if (victim_lost) {
          // Our reserved victim was revoked out from under us; relaxed
          // algorithms must additionally rerun the whole find. Attribute
          // the loss to the competing remover via the RevocationBoard.
          WindowBoundary<RR>::note_position_lost(
              found.parked_ref, /*hoh_retry=*/!unlinked.has_value());
        }
      }
      if (unlinked.has_value()) return *unlinked;
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

  /// Validates both directions: sorted forward, and every prev pointer
  /// inverse to its next pointer.
  bool is_consistent() {
    return TM::atomically([&](Tx& tx) {
      Node* previous = head_;
      for (Node* n = tx.read(head_->next); n != nullptr;
           n = tx.read(n->next)) {
        if (tx.read(n->prev) != previous) return false;
        if (previous != head_ && n->key <= previous->key)
          return false;
        previous = n;
      }
      return true;
    });
  }

  int window() const noexcept { return window_; }
  static const char* reservation_name() noexcept { return RR::name(); }

  /// Allow traversals to elide up to `budget` window boundaries per
  /// operation (see FusionState). Call before sharing across threads.
  void enable_fusion(int budget) { fusion_cap_ = budget; }

 private:
  struct Node {
    const Key key;  // immutable after publication: read plainly
    Node* prev;
    Node* next;
    Node(Key k, Node* p, Node* n) : key(k), prev(p), next(n) {}
  };

  /// Outcome of the find phase: a final value, or "go run phase two".
  /// `parked_ref` carries the reserved victim out of the find phase so a
  /// lost reservation in phase two can be attributed (RevocationBoard).
  struct FindOutcome {
    bool value = false;
    bool needs_second_phase = false;
    rr::Ref parked_ref = nullptr;
    static FindOutcome done(bool v) { return {v, false}; }
    static FindOutcome two_phase() { return {false, true}; }
    static FindOutcome found_no_change() { return {false, false}; }
  };

  void unlink_revoke_free(Tx& tx, Node* prev, Node* curr) {
    rr::SiteScope site(tm::RevokeSite::kListRemove);
    Node* next = tx.read(curr->next);
    tx.write(prev->next, next);
    if (next != nullptr) tx.write(next->prev, prev);
    reservation_.revoke(tx, curr);
    tx.dealloc(curr);
  }

  template <class FFound, class FNotFound>
  FindOutcome apply(Key key, FFound&& on_found, FNotFound&& on_not_found) {
    FusionState fusion(fusion_cap_);
    bool handed_over = false;
    rr::Ref parked = nullptr;  // what the previous window reserved
    for (;;) {
      bool position_lost = false;
      rr::Ref lost = nullptr;
      const std::optional<FindOutcome> outcome =
          TM::atomically([&](Tx& tx) -> std::optional<FindOutcome> {
            fusion.on_attempt_start();
            reservation_.register_thread(tx);
            Node* prev = static_cast<Node*>(
                const_cast<void*>(boundary_.resume(tx)));
            position_lost = handed_over && prev == nullptr;
            if (position_lost) lost = parked;
            int used = 0;
            if (prev == nullptr) {
              prev = head_;
              used = initial_scatter();
            }
            Node* curr = tx.read(prev->next);
            while (curr != nullptr && curr->key < key) {
              if (used >= window_) {
                if (!fusion.try_fuse()) break;
                used = 0;  // boundary elided: a fresh window, same tx
              }
              prev = curr;
              curr = tx.read(curr->next);
              ++used;
            }
            if (curr != nullptr && curr->key == key) {
              const FindOutcome result = on_found(tx, prev, curr);
              if (!result.needs_second_phase) reservation_.release(tx);
              if (result.needs_second_phase) parked = curr;
              return result;
            }
            if (curr == nullptr || curr->key > key) {
              const FindOutcome result = on_not_found(tx, prev, curr);
              reservation_.release(tx);
              return result;
            }
            boundary_.park(tx, curr);
            parked = curr;
            return std::nullopt;
          });
      fusion.on_commit();
      if (position_lost) WindowBoundary<RR>::note_position_lost(lost);
      if (outcome.has_value()) {
        FindOutcome result = *outcome;
        if (result.needs_second_phase) result.parked_ref = parked;
        return result;
      }
      handed_over = true;
    }
  }

  int initial_scatter() {
    if (!scatter_ || window_ <= 1 || window_ == kUnbounded) return 0;
    thread_local util::Xoshiro256 rng(
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 2);
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(window_)));
  }

  int window_;
  bool scatter_;
  Node* head_;
  RR reservation_;
  WindowBoundary<RR> boundary_{reservation_};
  int fusion_cap_ = 0;
};

}  // namespace hohtm::ds
