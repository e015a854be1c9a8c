#pragma once

#include <cstddef>
#include <new>
#include <utility>

namespace hohtm::util {

/// Size of a destructive-interference region. We hard-code 64 rather than
/// using std::hardware_destructive_interference_size because the latter is
/// an ABI hazard (GCC warns) and 64 is correct on every x86/ARM server part
/// this library targets.
inline constexpr std::size_t kCacheLineSize = 64;

/// Wraps a value so that it occupies (at least) its own cache line, so
/// that one thread's writes never falsely invalidate a neighbour's line —
/// the paper's RR algorithms assume "each thread's node is in a separate
/// cache line" (Section 3.1). Per-thread slots get it through
/// util::PerThread (util/per_thread.hpp); the hazard-pointer slot matrix
/// and single hot shared words use it directly.
template <class T>
struct alignas(kCacheLineSize) CachePadded {
  T value{};

  CachePadded() = default;
  template <class... Args>
  explicit CachePadded(Args&&... args) : value(std::forward<Args>(args)...) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
};

static_assert(sizeof(CachePadded<char>) == kCacheLineSize);
static_assert(alignof(CachePadded<char>) == kCacheLineSize);

}  // namespace hohtm::util
