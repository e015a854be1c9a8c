#pragma once

#include <atomic>

#include "tm/abort.hpp"
#include "tm/atomically.hpp"
#include "tm/global_clocks.hpp"
#include "tm/quiescence.hpp"
#include "tm/tx_alloc.hpp"
#include "tm/txsets.hpp"
#include "tm/word.hpp"

namespace hohtm::tm {

/// TML (Transactional Mutex Lock, Dalessandro et al. style): a global
/// sequence lock admits any number of concurrent readers and at most one
/// writer. Readers validate the clock after every read and abort on any
/// change; the first transactional write upgrades the transaction to the
/// (unique) writer, which then reads and writes in place, keeping an undo
/// log only for user-requested retries.
///
/// Opacity: readers abort at the first read that observes a clock change,
/// so they never see a mix of two writers' states. Precise reclamation:
/// deferred frees run after commit plus a quiescence fence over readers
/// that started before the writer's unlock.
class Tml {
 public:
  class Tx : public TxLifecycle {
   public:
    template <TxWord T>
    T read(const T& loc) {
      const T val = atomic_load(loc);
      if (!writer_ && !serial_ &&
          !sched::mutate(sched::Mutation::kSkipReadValidation)) {
        std::atomic_thread_fence(std::memory_order_acquire);
        if (seqlock().load_acquire() != snapshot_)
          // The clock moved: some writer invalidated us. Attribute the
          // abort to the last lock acquirer (best-effort; see SeqLock).
          abort_tx(AbortCause::kReadValidation, seqlock().owner());
      }
      return val;
    }

    template <TxWord T>
    void write(T& loc, T val) {
      if (!writer_ && !serial_) become_writer();
      undo_.record(&loc, erase_word(atomic_load(loc)));
      atomic_store(loc, val);
    }

    [[noreturn]] void retry() { user_retry(); }

    // -- harness hooks ----------------------------------------------------
    void begin() {
      writer_ = false;
      serial_ = false;
      undo_.clear();
      snapshot_ = seqlock().wait_even();
      quiescence().publish(snapshot_);
    }

    void commit() {
      if (writer_) {
        undo_.clear();
        seqlock().unlock_to(snapshot_ + 2);
        finish_with_frees(snapshot_ + 2);
      } else {
        finish_with_frees(snapshot_);
      }
    }

    void on_abort() noexcept {
      if (writer_) {
        undo_.roll_back();
        seqlock().unlock_to(snapshot_ + 2);
        writer_ = false;
      }
      life_.abort();
      quiescence().deactivate();
    }

    /// Serial mode: acquire the writer lock unconditionally up front; the
    /// transaction then cannot abort (TML writers are irrevocable).
    void begin_serial() {
      serial_ = true;
      writer_ = true;
      undo_.clear();
      for (;;) {
        const std::uint64_t even = seqlock().wait_even();
        if (seqlock().try_lock_from(even)) {
          snapshot_ = even;
          break;
        }
      }
    }

    void commit_serial() {
      undo_.clear();
      seqlock().unlock_to(snapshot_ + 2);
      // Serial transactions never publish (they cannot be invalidated),
      // so the quiescence fence below only waits for doomed readers.
      if (life_.has_pending_frees()) quiescence().wait_until(snapshot_ + 2);
      life_.commit();
      serial_ = false;
      writer_ = false;
    }

    void abort_serial() noexcept {
      undo_.roll_back();
      seqlock().unlock_to(snapshot_ + 2);
      life_.abort();
      serial_ = false;
      writer_ = false;
    }

   private:
    void become_writer() {
      // Capture the contending acquirer *before* our own attempt stamps
      // the owner cell (try_lock_from stamps pre-CAS).
      const int contender = seqlock().owner();
      if (!seqlock().try_lock_from(snapshot_))
        abort_tx(AbortCause::kLockConflict, contender);
      writer_ = true;
    }

    /// Common commit epilogue: if the transaction deferred any frees, it
    /// must deactivate first (so it does not wait on itself) and then wait
    /// for concurrent transactions that began before `ts`.
    void finish_with_frees(std::uint64_t ts) {
      if (life_.has_pending_frees()) {
        quiescence().deactivate();
        quiescence().wait_until(ts);
        life_.commit();
      } else {
        life_.commit();
        quiescence().deactivate();
      }
    }

    std::uint64_t snapshot_ = 0;
    bool writer_ = false;
    bool serial_ = false;
    UndoLog undo_;
  };

  template <class F>
  static decltype(auto) atomically(F&& f) {
    return run_transaction<Tml>(std::forward<F>(f));
  }

  template <class F>
  static decltype(auto) run_serial(F&& f) {
    Tx& tx = tls_tx();
    set_current(&tx);
    struct Clear {
      ~Clear() { set_current(nullptr); }
    } guard;
    return run_serial_body<Tml>(tx, std::forward<F>(f));
  }

  /// The global sequence lock's value. Every writer commit (and every
  /// serial transaction) advances it by 2; a read-only commit leaves it
  /// unchanged. Diagnostics and tests only.
  static std::uint64_t commit_clock() noexcept {
    return seqlock_.load_acquire();
  }

  static Tx* current() noexcept { return current_; }
  static void set_current(Tx* tx) noexcept { current_ = tx; }
  static Tx& tls_tx() {
    static thread_local Tx tx;
    return tx;
  }
  static constexpr const char* name() noexcept { return "tml"; }

  /// The writer stores in place beside running readers, and an aborted
  /// attempt's allocations are freed at once.
  static constexpr bool kBuffersWrites = false;

  /// Fence for non-TM reclaimers (hazard pointers): wait until every
  /// in-flight transaction has a snapshot at or past the current clock,
  /// so none can still hold (and re-validate) reads of an unlinked node.
  static void quiesce_before_free() noexcept {
    quiescence_.wait_until(seqlock_.wait_even());
  }

 private:
  friend class Tx;
  static SeqLock& seqlock() noexcept { return seqlock_; }
  static Quiescence& quiescence() noexcept { return quiescence_; }

  static inline SeqLock seqlock_;
  static inline Quiescence quiescence_;
  static inline thread_local Tx* current_ = nullptr;
};

}  // namespace hohtm::tm
