#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "tm/abort.hpp"
#include "tm/atomically.hpp"
#include "tm/global_clocks.hpp"
#include "tm/quiescence.hpp"
#include "tm/tx_alloc.hpp"
#include "tm/txsets.hpp"
#include "tm/word.hpp"
#include "util/backoff.hpp"
#include "util/tsan.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::tm {

/// TL2 (Dice, Shalev, Shavit, DISC 2006): per-location ownership records
/// (orecs) versioned by a global clock; lazy write-back with commit-time
/// locking. The paper cites TL2's ownership records as the inspiration for
/// the RR-V reservation algorithm, so having the real thing as a backend
/// makes that lineage testable.
///
///  - Read: check the orec (unlocked, version <= rv), load, re-check.
///    A newer version aborts immediately — opacity without value logging.
///  - Commit: lock the write orecs, fetch a new version from the global
///    clock, validate the read set, write back, release at the new version.
///  - Serial-irrevocable mode is stop-the-world: set a flag that parks new
///    transactions at begin, quiesce all in-flight transactions, then run
///    uninstrumented. This is the strongest analog of the paper's GCC
///    serial fallback.
///  - Precise reclamation: frees run post-commit behind the quiescence
///    fence (readers with rv < wv must finish or abort first).
class Tl2 {
 public:
  class Tx : public TxLifecycle {
   public:
    template <TxWord T>
    T read(const T& loc) {
      if (serial_) [[unlikely]]
        return atomic_load(loc);
      // As in Norec::Tx::read: an empty redo log cannot buffer `loc`.
      if (!writes_.empty()) [[unlikely]] {
        if (const ErasedWord* buffered = writes_.find(&loc))
          return restore_word<T>(*buffered);
      }
      std::atomic<std::uint64_t>& orec = orecs().orec_for(&loc);
      sched::point(sched::Op::kOrecRead, &orec);
      const std::uint64_t before = orec.load(std::memory_order_acquire);
      if (OrecTable::is_locked(before))
        // Exact attribution: a locked orec word carries the owner's slot.
        abort_tx(AbortCause::kLockConflict,
                 static_cast<int>(OrecTable::version_of(before)));
      if (OrecTable::version_of(before) > rv_)
        abort_tx(AbortCause::kReadValidation);
      const T val = atomic_load(loc);
      std::atomic_thread_fence(std::memory_order_acquire);
      sched::point(sched::Op::kOrecRead, &orec);
      if (!sched::mutate(sched::Mutation::kSkipReadValidation)) {
        const std::uint64_t after = orec.load(std::memory_order_acquire);
        if (after != before) {
          if (OrecTable::is_locked(after))
            abort_tx(AbortCause::kReadValidation,
                     static_cast<int>(OrecTable::version_of(after)));
          abort_tx(AbortCause::kReadValidation);
        }
      }
      // Re-check passed: the version this read ran at was published by a
      // committer's release store on this orec (mirrored for TSan; the
      // data load orders against the re-check via a fence TSan ignores).
      tsan::acquire(&orec);
      reads_.push(&orec);
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
      for (;;) {
        rv_ = orecs().clock();
        quiescence().publish(rv_);
        if (!serial_flag().load(std::memory_order_seq_cst)) break;
        // A serial transaction is starting (or running): get out of its
        // way, then re-sample the clock.
        quiescence().deactivate();
        sched::spin_wait(sched::Op::kLockAcquire, [] {
          return !serial_flag().load(std::memory_order_acquire);
        });
        util::Backoff backoff;
        while (serial_flag().load(std::memory_order_acquire)) backoff.pause();
      }
    }

    void commit() {
      if (writes_.empty()) {
        finish_with_frees(rv_);
        return;
      }
      lock_write_orecs();
      const std::uint64_t wv = orecs().advance_clock();
      if (rv_ + 1 != wv) validate_reads();
      writes_.write_back();
      for (const LockedOrec& lo : locked_) {
        sched::point(sched::Op::kOrecRelease, lo.orec);
        tsan::release(lo.orec);  // publishes the write-back at version wv
        lo.orec->store(OrecTable::unlocked(wv), std::memory_order_release);
      }
      locked_.clear();
      finish_with_frees(wv);
    }

    void on_abort() noexcept {
      release_locked();
      life_.abort();
      quiescence().deactivate();
    }

    // Serial mode body hooks. The world is already stopped (run_serial
    // set the flag and quiesced) before begin_serial runs.
    void begin_serial() {
      serial_ = true;
      undo_.clear();
    }

    void commit_serial() {
      undo_.clear();
      // World is stopped: frees are safe immediately, and no concurrent
      // snapshot can observe a half-applied state.
      life_.commit();
      serial_ = false;
    }

    void abort_serial() noexcept {
      undo_.roll_back();
      life_.abort();
      serial_ = false;
    }

   private:
    struct LockedOrec {
      std::atomic<std::uint64_t>* orec;
      std::uint64_t previous;
    };

    void lock_write_orecs() {
      const std::uint64_t mine =
          OrecTable::locked_by(util::ThreadRegistry::slot());
      for (const WriteSet::Entry& e : writes_.entries()) {
        auto& orec = orecs().orec_for(reinterpret_cast<void*>(e.addr));
        util::Backoff backoff;
        for (std::uint32_t spins = 0;; ++spins) {
          sched::point(sched::Op::kOrecRead, &orec);
          std::uint64_t seen = orec.load(std::memory_order_acquire);
          if (seen == mine) break;  // already locked by this commit
          if (OrecTable::is_locked(seen)) {
            if (spins >= kLockSpinBudget) {
              release_locked();
              abort_tx(AbortCause::kLockConflict,
                       static_cast<int>(OrecTable::version_of(seen)));
            }
            backoff.pause();
            continue;
          }
          if (OrecTable::version_of(seen) > rv_) {
            release_locked();
            abort_tx(AbortCause::kLockConflict);
          }
          sched::point(sched::Op::kOrecCas, &orec);
          if (orec.compare_exchange_weak(seen, mine,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
            tsan::acquire(&orec);  // synchronizes with the prior release
            locked_.push_back(LockedOrec{&orec, seen});
            break;
          }
        }
      }
    }

    void validate_reads() {
      const std::uint64_t mine =
          OrecTable::locked_by(util::ThreadRegistry::slot());
      for (std::atomic<std::uint64_t>* orec : reads_) {
        sched::point(sched::Op::kOrecRead, orec);
        const std::uint64_t seen = orec->load(std::memory_order_acquire);
        if (seen == mine) continue;
        if (OrecTable::is_locked(seen)) {
          release_locked();
          abort_tx(AbortCause::kReadValidation,
                   static_cast<int>(OrecTable::version_of(seen)));
        }
        if (OrecTable::version_of(seen) > rv_) {
          release_locked();
          abort_tx(AbortCause::kReadValidation);
        }
      }
    }

    void release_locked() noexcept {
      for (const LockedOrec& lo : locked_) {
        sched::point(sched::Op::kOrecRelease, lo.orec);
        lo.orec->store(lo.previous, std::memory_order_release);
      }
      locked_.clear();
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

    static constexpr std::uint32_t kLockSpinBudget = 64;

    std::uint64_t rv_ = 0;
    bool serial_ = false;
    ReadLog<std::atomic<std::uint64_t>*> reads_;
    WriteSet writes_;
    std::vector<LockedOrec> locked_;
    UndoLog undo_;
  };

  template <class F>
  static decltype(auto) atomically(F&& f) {
    return run_transaction<Tl2>(std::forward<F>(f));
  }

  /// Stop-the-world serial execution. Unlike the seqlock backends, a user
  /// `retry()` here must *resume* the world between attempts (another
  /// thread — necessarily parked at begin while the flag is up — may be
  /// the one that will change the condition being retried on), so the
  /// stop/quiesce/run/resume cycle is per attempt.
  template <class F>
  static decltype(auto) run_serial(F&& f) {
    using R = std::invoke_result_t<F&, Tx&>;
    std::lock_guard<std::mutex> serial_lock(serial_mutex());
    Tx& tx = tls_tx();
    set_current(&tx);
    struct Clear {
      ~Clear() { set_current(nullptr); }
    } guard;

    util::Backoff backoff;
    for (;;) {
      {
        serial_flag().store(true, std::memory_order_seq_cst);
        struct WorldResume {
          ~WorldResume() {
            Tl2::serial_flag().store(false, std::memory_order_seq_cst);
          }
        } resume_guard;
        quiescence().wait_all_inactive();  // caller aborted before fallback
        try {
          tx.begin_serial();
          if constexpr (std::is_void_v<R>) {
            f(tx);
            tx.commit_serial();
            Stats::mine().serial_commits += 1;
            return;
          } else {
            R result = f(tx);
            tx.commit_serial();
            Stats::mine().serial_commits += 1;
            return result;
          }
        } catch (const Conflict&) {
          tx.abort_serial();
          Stats::mine().aborts += 1;
        } catch (...) {
          tx.abort_serial();
          throw;
        }
      }
      // World runs again here, so the retried-on condition can change.
      backoff.pause();
    }
  }

  /// The global version clock. Every writer commit advances it; a
  /// read-only commit leaves it unchanged. Diagnostics and tests only.
  static std::uint64_t commit_clock() noexcept { return orecs().clock(); }

  static Tx* current() noexcept { return current_; }
  static void set_current(Tx* tx) noexcept { current_ = tx; }
  static Tx& tls_tx() {
    static thread_local Tx tx;
    return tx;
  }
  static constexpr const char* name() noexcept { return "tl2"; }

  /// A running transaction's plain loads never return a pointer to an
  /// allocation that is freed without a quiescence fence: the redo log
  /// is written back only after commit-time validation has passed, and
  /// the serial mode, which writes in place, stops the world first.
  static constexpr bool kBuffersWrites = true;

  /// Fence for non-TM reclaimers (hazard pointers): wait until every
  /// transaction that began before now has finished (TL2 readers never
  /// advance their snapshot mid-transaction).
  static void quiesce_before_free() noexcept {
    quiescence_.wait_until(orecs().clock());
  }

 private:
  static OrecTable& orecs() noexcept {
    static OrecTable table;  // 2 MiB; function-local to avoid bss bloat
    return table;
  }
  static Quiescence& quiescence() noexcept { return quiescence_; }
  static std::atomic<bool>& serial_flag() noexcept { return serial_flag_; }
  static std::mutex& serial_mutex() {
    static std::mutex mu;
    return mu;
  }

  static inline Quiescence quiescence_;
  static inline std::atomic<bool> serial_flag_{false};
  static inline thread_local Tx* current_ = nullptr;
};

}  // namespace hohtm::tm
