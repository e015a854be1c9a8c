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

/// NOrec (Dalessandro, Spear, Scott, PPoPP 2010): value-based validation
/// with a single global sequence lock and lazy write-back.
///
///  - Readers log (address, value) pairs; whenever the global clock moves
///    they re-check every logged value and either adopt the new snapshot
///    or abort. This gives opacity without per-location metadata.
///  - The read barrier pays only for what the transaction has done, as in
///    the reference implementation's read-only / read-write barrier
///    split. Until its first write a read skips the write-set probe: an
///    empty redo log cannot buffer the address. The fast path is a typed
///    load, an acquire fence, one seqlock load compared with the
///    snapshot, and an inline append to the ReadLog; when the clock has
///    moved, revalidation and the reload run out of line.
///  - Writers buffer updates in a redo log; commit acquires the sequence
///    lock, re-validates, writes back, and releases.
///  - Precise reclamation: deferred frees run after the unlock plus a
///    quiescence fence over transactions whose snapshot predates the
///    commit. Combined with value-based validation this is privatization
///    safe: a doomed reader re-validates (and aborts) before it can act on
///    any value the committer changed, and cannot reach memory the
///    committer freed without having read something the committer wrote.
///
/// This is the default backend for the paper-reproduction benchmarks: like
/// the paper's HTM it has no per-access metadata writes for readers, and
/// its commit-time serialization models HTM's cache-based conflict
/// resolution more closely than an orec STM does.
class Norec {
 public:
  class Tx : public TxLifecycle {
   public:
    template <TxWord T>
    T read(const T& loc) {
      if (serial_) [[unlikely]]
        return atomic_load(loc);
      // Read-after-write: only a transaction that has written can have
      // buffered this address, so a read-only one skips the probe.
      if (!writes_.empty()) [[unlikely]] {
        if (const ErasedWord* buffered = writes_.find(&loc))
          return restore_word<T>(*buffered);
      }
      T val = atomic_load(loc);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seqlock().load_acquire() != snapshot_ &&
          !sched::mutate(sched::Mutation::kSkipReadValidation)) [[unlikely]]
        val = revalidate_and_reload(loc);
      reads_.push(ReadEntry{&loc, erase_word(val).bits, sizeof(T)});
      return val;
    }

    template <TxWord T>
    void write(T& loc, T val) {
      if (serial_) {
        undo_.record(&loc, erase_word(atomic_load(loc)));
        atomic_store(loc, val);
        return;
      }
      writes_.put(&loc, erase_word(val));
    }

    [[noreturn]] void retry() { user_retry(); }

    // -- harness hooks ----------------------------------------------------
    void begin() {
      serial_ = false;
      reads_.clear();
      writes_.clear();
      snapshot_ = seqlock().wait_even();
      quiescence().publish(snapshot_);
    }

    void commit() {
      if (writes_.empty()) {
        finish_with_frees(snapshot_);
        return;
      }
      while (!seqlock().try_lock_from(snapshot_)) snapshot_ = validate();
      writes_.write_back();
      seqlock().unlock_to(snapshot_ + 2);
      finish_with_frees(snapshot_ + 2);
    }

    void on_abort() noexcept {
      life_.abort();
      quiescence().deactivate();
    }

    /// Serial mode: hold the sequence lock for the whole transaction and
    /// execute in place (undo-logged so a user retry can roll back).
    /// Concurrent readers block in wait_even/validate until release, then
    /// re-validate — they can never adopt a half-done serial state.
    void begin_serial() {
      serial_ = true;
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
      if (life_.has_pending_frees()) quiescence().wait_until(snapshot_ + 2);
      life_.commit();
      serial_ = false;
    }

    void abort_serial() noexcept {
      undo_.roll_back();
      seqlock().unlock_to(snapshot_ + 2);
      // The in-place writes may have published this attempt's
      // allocations to a reader between two reads; it revalidates at its
      // next read, so wait for that before the allocations go.
      if (life_.has_allocs()) quiescence().wait_until(snapshot_ + 2);
      life_.abort();
      serial_ = false;
    }

    bool in_serial_mode() const noexcept { return serial_; }

    /// Words in the read log: the running attempt's, or after it ends
    /// the last attempt's (begin clears it). Diagnostics and tests only.
    std::size_t logged_reads() const noexcept { return reads_.size(); }

    /// Write-set lookups this thread's descriptor has made, over its
    /// lifetime. Diagnostics and tests only: a transaction that has not
    /// written makes none.
    std::uint64_t write_set_probes() const noexcept { return writes_.probes(); }

   private:
    /// One logged read: the value's bits at the width it was read with.
    /// Trivial, so ReadLog growth never touches unused capacity.
    struct ReadEntry {
      const void* addr;
      std::uint64_t bits;
      std::uint8_t width;
    };

    /// The read barrier's slow path: the clock moved since the snapshot,
    /// so revalidate, adopt the new snapshot, and reload until the clock
    /// holds still across the load (or the transaction aborts).
    template <TxWord T>
    [[gnu::noinline]] T revalidate_and_reload(const T& loc) {
      for (;;) {
        snapshot_ = validate();
        const T val = atomic_load(loc);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (seqlock().load_acquire() == snapshot_ ||
            sched::mutate(sched::Mutation::kSkipReadValidation))
          return val;
      }
    }

    /// Wait for a stable even clock, re-check every logged read, and
    /// return the snapshot the read set is now known to be valid at.
    std::uint64_t validate() {
      Stats::mine().validations += 1;
      for (;;) {
        const std::uint64_t even = seqlock().wait_even();
        for (const ReadEntry& r : reads_) {
          if (erased_load(r.addr, r.width).bits != r.bits)
            // A committed writer changed a value under us; the last lock
            // acquirer is that writer (best-effort; see SeqLock::owner).
            abort_tx(AbortCause::kReadValidation, seqlock().owner());
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (seqlock().load_acquire() == even) {
          quiescence().publish(even);
          return even;
        }
      }
    }

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
    bool serial_ = false;
    ReadLog<ReadEntry> reads_;
    WriteSet writes_;
    UndoLog undo_;
  };

  template <class F>
  static decltype(auto) atomically(F&& f) {
    return run_transaction<Norec>(std::forward<F>(f));
  }

  template <class F>
  static decltype(auto) run_serial(F&& f) {
    Tx& tx = tls_tx();
    set_current(&tx);
    struct Clear {
      ~Clear() { set_current(nullptr); }
    } guard;
    return run_serial_body<Norec>(tx, std::forward<F>(f));
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
  static constexpr const char* name() noexcept { return "norec"; }

  /// A running transaction's plain loads never return a pointer to an
  /// allocation that is freed without a quiescence fence: the redo log
  /// is written back only after commit-time validation has passed, and
  /// the serial mode, which writes in place beside running readers,
  /// fences the frees of an aborted attempt's allocations (abort_serial).
  static constexpr bool kBuffersWrites = true;

  /// Fence for non-TM reclaimers (hazard pointers): wait until every
  /// in-flight transaction has validated at or past the current clock;
  /// after that no read set can still reference an unlinked node, so its
  /// memory cannot be touched by value-based re-validation.
  static void quiesce_before_free() noexcept {
    quiescence_.wait_until(seqlock_.wait_even());
  }

 private:
  static SeqLock& seqlock() noexcept { return seqlock_; }
  static Quiescence& quiescence() noexcept { return quiescence_; }

  static inline SeqLock seqlock_;
  static inline Quiescence quiescence_;
  static inline thread_local Tx* current_ = nullptr;
};

}  // namespace hohtm::tm
