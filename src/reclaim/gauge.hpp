#pragma once

#include <atomic>
#include <cstdint>

#include "util/per_thread.hpp"

namespace hohtm::reclaim {

/// Process-wide live-object gauge.
///
/// Every allocation/free routed through the TM (`tx.alloc` / `tx.dealloc`)
/// and through the reclamation baselines (hazard pointers, epochs) ticks
/// this gauge. It is how tests and the mem_pressure example *prove*
/// precision: with revocable reservations, `live()` equals the logical
/// structure size plus O(threads) at every quiescent point, while deferred
/// schemes show a backlog of logically-deleted-but-unreclaimed nodes.
///
/// Counters are per-thread and padded; `live()` sums them (allocs and frees
/// by different threads net out across slots).
class Gauge {
 public:
  // Each cell is written only by its owning thread, so a relaxed
  // load-modify-store (not an RMW) is sufficient and cheap.
  static void on_alloc() noexcept { bump(cell().allocs); }
  static void on_free() noexcept { bump(cell().frees); }

  static std::int64_t live() noexcept {
    std::int64_t allocs = 0;
    std::int64_t frees = 0;
    for (const auto& slot : slots_.live()) {
      allocs += slot->allocs.load(std::memory_order_acquire);
      frees += slot->frees.load(std::memory_order_acquire);
    }
    const std::int64_t result = allocs - frees;
    // Advance the high-water mark: live() is the only place a coherent
    // global sum exists (per-cell peaks would not sum to a global peak),
    // so the peak is over *snapshots* — every live() call, including the
    // footprint-timeline sampler's, feeds it. The hot alloc/free path
    // stays contention-free.
    std::int64_t seen = peak_.load(std::memory_order_relaxed);
    while (result > seen &&
           !peak_.compare_exchange_weak(seen, result,
                                        std::memory_order_relaxed)) {
    }
    return result;
  }

  /// Monotonic high-water mark over every live() snapshot taken so far —
  /// the single-scalar "max footprint" benches report. Process-wide and
  /// never reset; callers that want a per-phase peak snapshot live()
  /// around the phase and difference against their own baseline.
  static std::int64_t peak() noexcept {
    return peak_.load(std::memory_order_acquire);
  }

  /// Not resettable per-test via zeroing (racy); tests snapshot live()
  /// before and after instead.

 private:
  struct Cell {
    // No default member initializers: PerThread<Cell> is instantiated
    // inside this class, before such initializers would be complete. The
    // C++20 std::atomic default constructor value-initializes to zero.
    std::atomic<std::int64_t> allocs;
    std::atomic<std::int64_t> frees;
  };
  static Cell& cell() noexcept { return slots_.mine(); }
  static void bump(std::atomic<std::int64_t>& counter) noexcept {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
  }
  static constinit inline util::PerThread<Cell> slots_;
  static inline std::atomic<std::int64_t> peak_{0};
};

}  // namespace hohtm::reclaim
