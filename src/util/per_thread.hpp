#pragma once

#include <span>

#include "util/cacheline.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::util {

/// One cell per thread-registry slot, each on its own cache line — the
/// single place that knows the per-thread layout the paper's RR
/// algorithms assume ("each thread's node is in a separate cache line",
/// Section 3.1) and every counter plane reuses.
///
/// Owners reach their cell through `mine()`. Scanners and aggregators
/// (quiescence fences, `total()` sums, revocation fallbacks) walk
/// `live()`: the cells of every slot handed out so far. Slots are
/// recycled, so a cell written by a thread that has exited is still in
/// the live range, and the next thread to take that slot writes the same
/// cell. The default constructor is constexpr: a `constinit static`
/// instance is constant-initialized and usable from any TU's static
/// initializers.
template <class T>
class PerThread {
 public:
  constexpr PerThread() = default;

  /// The calling thread's cell (registering the thread on first use).
  T& mine() noexcept { return cells_[ThreadRegistry::slot()].value; }
  const T& mine() const noexcept {
    return cells_[ThreadRegistry::slot()].value;
  }

  /// Cells of slots [0, ThreadRegistry::high_watermark()), indexable by
  /// slot.
  std::span<CachePadded<T>> live() noexcept {
    return {cells_, ThreadRegistry::high_watermark()};
  }
  std::span<const CachePadded<T>> live() const noexcept {
    return {cells_, ThreadRegistry::high_watermark()};
  }

 private:
  CachePadded<T> cells_[kMaxThreads];
};

}  // namespace hohtm::util
