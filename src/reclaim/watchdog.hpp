#pragma once

#include <atomic>
#include <cstdint>

#include "util/per_thread.hpp"

namespace hohtm::reclaim {

/// Reclamation-stall watchdog (docs/OBSERVABILITY.md; ROADMAP item 4's
/// robustness-under-stall instrumentation).
///
/// The paper's precise schemes are immune to a stalled reader; epochs and
/// hazard-style schemes are not — one thread parked inside a window lets
/// the unreclaimed backlog grow without bound. This watchdog *detects*
/// the parked thread: every `Quiescence::publish` bumps the publishing
/// thread's progress counter and marks it active, every `deactivate`
/// clears the mark. A thread that stays active without its progress
/// moving for longer than the threshold is reported stalled.
///
/// The hot-path cost is two relaxed stores into the thread's own padded
/// slot — always-on, like tm::Stats. Detection (`check`) takes an
/// explicit `now_ns` timestamp so tests and the sched explorer can drive
/// it deterministically: `check(t0)` establishes baselines, and
/// `check(t0 + threshold + 1)` must report any thread that was active at
/// both samples without progressing. Baseline state is guarded by an
/// internal mutex — any thread may call check, one at a time.
class Watchdog {
 public:
  /// Hot-path hooks, called from Quiescence::publish / deactivate.
  static void on_publish() noexcept {
    Slot& slot = slots_.mine();
    slot.progress.store(slot.progress.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    slot.active.store(1, std::memory_order_relaxed);
  }
  static void on_deactivate() noexcept {
    slots_.mine().active.store(0, std::memory_order_relaxed);
  }

  struct Report {
    int active_threads = 0;   // slots currently inside a window/epoch
    int stalled_threads = 0;  // of those, parked past the threshold
    std::uint64_t max_stall_ns = 0;
  };

  /// Sample every registry slot at time `now_ns` and report threads that
  /// have been continuously active without progress past the threshold.
  static Report check(std::uint64_t now_ns);

  static void set_threshold_ns(std::uint64_t ns) noexcept {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  static std::uint64_t threshold_ns() noexcept {
    return threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Cumulative count of stall *events* (a thread transitioning into the
  /// stalled state; a thread parked across many checks counts once until
  /// it progresses or deactivates).
  static std::uint64_t stall_events() noexcept {
    return stall_events_.load(std::memory_order_acquire);
  }

  /// Convenience for always-on monitors (kv::Service, metrics snapshot):
  /// check against the real steady clock.
  static Report check_now();

  /// Quiescent-only: clear baselines and the cumulative event counter.
  static void reset_for_testing() noexcept;

 private:
  struct Slot {
    // No default member initializers: PerThread<Slot> is instantiated
    // inside this class, before such initializers would be complete (see
    // reclaim::Gauge::Cell). C++20 std::atomic zero-initializes.
    std::atomic<std::uint64_t> progress;
    std::atomic<std::uint64_t> active;
  };
  static constinit inline util::PerThread<Slot> slots_;
  static inline std::atomic<std::uint64_t> threshold_ns_{
      100ULL * 1000 * 1000};  // 100 ms default
  static inline std::atomic<std::uint64_t> stall_events_{0};
};

}  // namespace hohtm::reclaim
