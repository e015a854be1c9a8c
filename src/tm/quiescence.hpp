#pragma once

#include <atomic>
#include <cstdint>

#include "reclaim/watchdog.hpp"
#include "sched/schedpoint.hpp"
#include "util/per_thread.hpp"
#include "util/tsan.hpp"

namespace hohtm::tm {

/// Privatization / reclamation fence.
///
/// The paper leans on HTM's *immediacy of aborts*: once a Revoke commits,
/// no doomed hardware transaction can still be running, so the revoker may
/// free the node at once. Our STM substitute is a quiescence fence: every
/// transaction publishes the timestamp its snapshot is valid at; a
/// committer that has deferred frees waits, after its commit is visible,
/// until every in-flight transaction has either finished or (re)validated
/// at a timestamp at or past the commit. Doomed "zombie" readers therefore
/// drain before the memory they might still dereference is returned to the
/// allocator — frees stay *precise* (they happen at commit, not epochs
/// later) yet are safe.
///
/// Each TM backend owns one Quiescence instance (its timestamp domain).
/// Slots store (timestamp + 1); zero means inactive, so the object is
/// usable from zero-initialized static storage (no init-order hazards).
class Quiescence {
 public:
  /// Calling thread begins (or revalidates) a transaction at `ts`.
  /// seq_cst: pairs with the scans in wait_* and with serial-mode flags
  /// (Dekker-style publish-then-check / set-then-scan).
  void publish(std::uint64_t ts) noexcept {
    sched::point(sched::Op::kQuiescePublish, this);
    reclaim::Watchdog::on_publish();
    auto& slot = slots_.mine();
    // Everything this thread read before (re)validating at ts must
    // happen-before any free gated on wait_until(<= ts) observing it.
    tsan::release(&slot);
    slot.store(ts + 1, std::memory_order_seq_cst);
  }

  /// Calling thread has no transaction in flight.
  void deactivate() noexcept {
    sched::point(sched::Op::kQuiesceDeactivate, this);
    reclaim::Watchdog::on_deactivate();
    auto& slot = slots_.mine();
    tsan::release(&slot);  // all of this thread's transactional accesses
    slot.store(0, std::memory_order_release);
  }

  bool active() const noexcept {
    return slots_.mine().load(std::memory_order_relaxed) != 0;
  }

  /// Block until every thread is inactive or published a timestamp >= ts.
  /// The caller must have deactivated itself first.
  void wait_until(std::uint64_t ts) const noexcept;

  /// Block until every thread is inactive (stop-the-world; used by the
  /// TL2 serial-irrevocable mode). Caller must be inactive.
  void wait_all_inactive() const noexcept;

  /// True when every slot is inactive or published at a timestamp >= ts —
  /// i.e. wait_until(ts) would return without blocking. A single whole-
  /// fence predicate (rather than a per-slot scan) so that tests and the
  /// virtual scheduler observe settledness independently of slot order.
  bool settled_at(std::uint64_t ts) const noexcept {
    for (const auto& slot : slots_.live()) {
      const std::uint64_t published = slot->load(std::memory_order_acquire);
      if (published != 0 && published < ts + 1) return false;
    }
    return true;
  }

  /// True when every slot is inactive — wait_all_inactive() would not block.
  bool all_inactive() const noexcept {
    for (const auto& slot : slots_.live())
      if (slot->load(std::memory_order_acquire) != 0) return false;
    return true;
  }

 private:
  util::PerThread<std::atomic<std::uint64_t>> slots_;
};

}  // namespace hohtm::tm
