#pragma once

#include <utility>

#include "alloc/object.hpp"
#include "reclaim/gauge.hpp"
#include "tm/txsets.hpp"

namespace hohtm::tm {

/// Lifecycle mixin shared by every backend's Tx type: transactional
/// allocation and the owner-private access path.
///
///  - `alloc<T>(args...)` constructs T now; if the transaction aborts, the
///    object is destroyed and its memory released (the allocation "never
///    happened").
///  - `dealloc(p)` defers destruction to commit time. Concurrent backends
///    run the deferred frees only after their quiescence fence, so the
///    free is precise (it happens as part of the committing operation, not
///    epochs later) yet can never be observed by a doomed reader.
///  - `read_private(cell)` / `write_private(cell, v)` reach a PrivateCell,
///    a word no other thread ever reads. Writes go to a redo buffer that
///    is written back only after the transaction commits and is thrown
///    away on abort; reads check that buffer, then load the cell plainly.
///    Nothing is logged or validated and the backend's own write set never
///    sees these writes, so a transaction whose only writes are private
///    commits down the backend's read-only path: no seqlock or clock
///    advance, like an HTM commit that touches no global metadata. The
///    loads and write-back stores are plain, not atomic and not sched
///    points: nothing can race with them, and TSan reports any other
///    thread that touches a private cell.
///
/// Per the paper's evaluation note that performance improves when
/// allocation happens outside transactions, the mixin keeps the actual
/// `new` outside any TM instrumentation — only the rollback bookkeeping is
/// transactional.
class TxLifecycle {
 public:
  template <TxWord T>
  T read_private(const PrivateCell<T>& cell) noexcept {
    const ErasedWord* buffered = life_.private_writes().find(&cell.value_);
    if (buffered != nullptr) return restore_word<T>(*buffered);
    return cell.value_;
  }

  template <TxWord T>
  void write_private(PrivateCell<T>& cell, T val) {
    life_.private_writes().put(&cell.value_, erase_word(val));
  }

  template <class T, class... Args>
  T* alloc(Args&&... args) {
    T* p = hohtm::alloc::create<T>(std::forward<Args>(args)...);
    reclaim::Gauge::on_alloc();
    life_.on_abort(p, &destroy_thunk<T>);
    return p;
  }

  /// `alloc` with `extra` trailing payload bytes in the same block (see
  /// alloc::create_flex). Same rollback contract: the whole block — struct
  /// and tail — vanishes if the transaction aborts.
  template <class T, class... Args>
  T* alloc_flex(std::size_t extra, Args&&... args) {
    T* p = hohtm::alloc::create_flex<T>(extra, std::forward<Args>(args)...);
    reclaim::Gauge::on_alloc();
    life_.on_abort(p, &destroy_thunk<T>);
    return p;
  }

  template <class T>
  void dealloc(T* p) {
    if (p != nullptr) life_.on_commit(const_cast<std::remove_const_t<T>*>(p), &destroy_thunk<std::remove_const_t<T>>);
  }

 protected:
  template <class T>
  static void destroy_thunk(void* p) noexcept {
    hohtm::alloc::destroy(static_cast<T*>(p));
    reclaim::Gauge::on_free();
  }

  LifecycleLog life_;
};

}  // namespace hohtm::tm
