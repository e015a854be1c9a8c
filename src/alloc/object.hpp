#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "alloc/pool.hpp"

namespace hohtm::alloc {

/// Alignment of every block `allocate` returns (its header is 16 bytes
/// and both backends start the header on a 16-byte boundary).
inline constexpr std::size_t kBlockAlign = 16;

/// Typed construct/destroy on the switchable allocation backend. Every
/// object that may ever be freed by `destroy` (or by `tx.dealloc`) must
/// be created by `create` (or `tx.alloc`) — mixing in plain new/delete
/// would corrupt whichever heap did not issue the block.
///
/// `create_flex` adds `extra` trailing bytes in the same block, for
/// objects that carry a variable-length payload after the struct (kv
/// nodes and bucket-slot tables). The pool's block header records the
/// full size, so `destroy` / `tx.dealloc` free the whole block with no
/// extra metadata. T must be trivially destructible or ignore the tail
/// in its destructor; the tail bytes start at `this + 1` and are
/// uninitialized.
///
/// An over-aligned T (alignof(T) > kBlockAlign, e.g. the cache-line
/// padded RR thread nodes) gets alignof(T) more bytes and sits at the
/// first alignof(T) boundary past the block start, which leaves at least
/// kBlockAlign bytes in front of it; the block's own address is kept in
/// the word just before the object, where `destroy` finds it. Every
/// other T takes the block as is.
template <class T, class... Args>
T* create_flex(std::size_t extra, Args&&... args) {
  constexpr bool over_aligned = alignof(T) > kBlockAlign;
  void* const mem =
      allocate(sizeof(T) + extra + (over_aligned ? alignof(T) : 0));
  void* at = mem;
  if constexpr (over_aligned) {
    at = static_cast<char*>(mem) + alignof(T) -
         reinterpret_cast<std::uintptr_t>(mem) % alignof(T);
    std::memcpy(static_cast<char*>(at) - sizeof(mem), &mem, sizeof(mem));
  }
  try {
    return new (at) T(std::forward<Args>(args)...);
  } catch (...) {
    deallocate(mem);
    throw;
  }
}

template <class T, class... Args>
T* create(Args&&... args) {
  return create_flex<T>(0, std::forward<Args>(args)...);
}

template <class T>
void destroy(T* p) noexcept {
  if (p == nullptr) return;
  p->~T();
  if constexpr (alignof(T) > kBlockAlign) {
    void* mem = nullptr;
    std::memcpy(&mem, reinterpret_cast<const char*>(p) - sizeof(mem),
                sizeof(mem));
    deallocate(mem);
  } else {
    deallocate(p);
  }
}

}  // namespace hohtm::alloc
