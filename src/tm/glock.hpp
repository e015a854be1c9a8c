#pragma once

#include <mutex>

#include "tm/abort.hpp"
#include "tm/atomically.hpp"
#include "tm/tx_alloc.hpp"
#include "tm/txsets.hpp"
#include "tm/word.hpp"

namespace hohtm::tm {

/// GLock: every transaction runs under one global mutex.
///
/// Zero speculation, zero instrumentation on reads — this is the
/// correctness oracle for the test suite and the lower-bound baseline for
/// the TM-backend ablation. Writes keep an undo log solely so that a
/// user-requested `retry()` (or an exception) can roll the body back.
/// Because transactions are fully serialized, deferred frees are safe to
/// run at commit with no quiescence fence.
class GLock {
 public:
  class Tx : public TxLifecycle {
   public:
    template <TxWord T>
    T read(const T& loc) noexcept {
      return loc;
    }

    template <TxWord T>
    void write(T& loc, T val) {
      undo_.record(&loc, erase_word(loc));
      loc = val;
    }

    [[noreturn]] void retry() { user_retry(); }

    // -- harness hooks ----------------------------------------------------
    void begin() { mutex().lock(); }

    void commit() {
      undo_.clear();
      life_.commit();
      mutex().unlock();
    }

    void on_abort() noexcept {
      undo_.roll_back();
      life_.abort();
      mutex().unlock();
    }

    // Serial mode is identical to the normal mode (already irrevocable in
    // the absence of user retries, which run_serial_body handles).
    void begin_serial() { begin(); }
    void commit_serial() { commit(); }
    void abort_serial() noexcept { on_abort(); }

   private:
    UndoLog undo_;
  };

  template <class F>
  static decltype(auto) atomically(F&& f) {
    return run_transaction<GLock>(std::forward<F>(f));
  }

  template <class F>
  static decltype(auto) run_serial(F&& f) {
    Tx& tx = tls_tx();
    set_current(&tx);
    struct Clear {
      ~Clear() { set_current(nullptr); }
    } guard;
    return run_serial_body<GLock>(tx, std::forward<F>(f));
  }

  static Tx* current() noexcept { return current_; }
  static void set_current(Tx* tx) noexcept { current_ = tx; }
  static Tx& tls_tx() {
    static thread_local Tx tx;
    return tx;
  }
  static constexpr const char* name() noexcept { return "glock"; }

  /// Writes land in place.
  static constexpr bool kBuffersWrites = false;

  /// Fence for non-TM reclaimers (hazard pointers) freeing memory that
  /// transactions may have read: GLock transactions only ever read
  /// reachable nodes while holding the global mutex, so no wait is
  /// needed before freeing unlinked ones.
  static void quiesce_before_free() noexcept {}

 private:
  static std::mutex& mutex() {
    static std::mutex mu;
    return mu;
  }
  static inline thread_local Tx* current_ = nullptr;
};

}  // namespace hohtm::tm
