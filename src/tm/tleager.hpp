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

/// TLEager: orec-based STM with *encounter-time* locking and undo
/// logging — writes acquire ownership at the access and store in place.
///
/// Why it exists in this reproduction: the paper leans on HTM's
/// *immediacy* — a conflicting access kills the other transaction right
/// away. Lazy STMs (NOrec, TL2) only surface write conflicts at commit.
/// Eager acquisition is the closest software analog: a second writer (or
/// any reader) of a locked location aborts at the access, so conflict
/// timing — and therefore the contention behaviour of the reservation
/// algorithms — is closer to the paper's substrate. The A2 backend
/// ablation quantifies the difference against the lazy backends.
///
///  - Read: orec must be unlocked with version <= rv (or owned by this
///    transaction); check / load / re-check, as in TL2.
///  - Write: CAS the orec from unlocked to owned (abort if another owner
///    holds it — self-abort rather than wait, with the usual serial
///    fallback providing progress), log the old value, store in place.
///  - Commit: draw a new version, validate the read set, release the
///    write orecs at the new version. Abort: roll the undo log back,
///    release orecs at their *old* versions (values are restored, so
///    the old versions are again truthful).
///  - Precise reclamation: quiescence fence before deferred frees, and
///    the same stop-the-world serial-irrevocable mode as TL2.
class TlEager {
 public:
  class Tx : public TxLifecycle {
   public:
    template <TxWord T>
    T read(const T& loc) {
      if (serial_) return atomic_load(loc);
      std::atomic<std::uint64_t>& orec = orecs().orec_for(&loc);
      sched::point(sched::Op::kOrecRead, &orec);
      const std::uint64_t before = orec.load(std::memory_order_acquire);
      if (before == my_lock_word()) return atomic_load(loc);  // mine
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
      tsan::acquire(&orec);  // see Tl2::Tx::read
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
      acquire(&loc);
      undo_.record(&loc, erase_word(atomic_load(loc)));
      atomic_store(loc, val);
    }

    [[noreturn]] void retry() { user_retry(); }

    // -- harness hooks ----------------------------------------------------
    void begin() {
      serial_ = false;
      reads_.clear();
      undo_.clear();
      locked_.clear();
      for (;;) {
        rv_ = orecs().clock();
        quiescence().publish(rv_);
        if (!serial_flag().load(std::memory_order_seq_cst)) break;
        quiescence().deactivate();
        sched::spin_wait(sched::Op::kLockAcquire, [] {
          return !serial_flag().load(std::memory_order_acquire);
        });
        util::Backoff backoff;
        while (serial_flag().load(std::memory_order_acquire)) backoff.pause();
      }
    }

    void commit() {
      if (locked_.empty()) {  // read-only
        undo_.clear();
        finish_with_frees(rv_);
        return;
      }
      const std::uint64_t wv = orecs().advance_clock();
      if (rv_ + 1 != wv) validate_reads();
      undo_.clear();  // writes are already in place and now permanent
      for (const LockedOrec& lo : locked_) {
        sched::point(sched::Op::kOrecRelease, lo.orec);
        tsan::release(lo.orec);  // publishes the in-place writes at wv
        lo.orec->store(OrecTable::unlocked(wv), std::memory_order_release);
      }
      locked_.clear();
      finish_with_frees(wv);
    }

    void on_abort() noexcept {
      undo_.roll_back();  // restore values BEFORE re-exposing old versions
      for (const LockedOrec& lo : locked_) {
        sched::point(sched::Op::kOrecRelease, lo.orec);
        tsan::release(lo.orec);  // publishes the undo-log restoration
        lo.orec->store(lo.previous, std::memory_order_release);
      }
      locked_.clear();
      life_.abort();
      quiescence().deactivate();
    }

    // Stop-the-world serial mode (world already stopped by run_serial).
    void begin_serial() {
      serial_ = true;
      undo_.clear();
    }

    void commit_serial() {
      undo_.clear();
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

    std::uint64_t my_lock_word() const noexcept {
      return OrecTable::locked_by(util::ThreadRegistry::slot());
    }

    void acquire(const void* addr) {
      std::atomic<std::uint64_t>& orec = orecs().orec_for(addr);
      sched::point(sched::Op::kOrecRead, &orec);
      std::uint64_t seen = orec.load(std::memory_order_acquire);
      if (seen == my_lock_word()) return;  // already own it
      if (OrecTable::is_locked(seen))
        abort_tx(AbortCause::kLockConflict,
                 static_cast<int>(OrecTable::version_of(seen)));
      if (OrecTable::version_of(seen) > rv_)
        abort_tx(AbortCause::kLockConflict);
      sched::point(sched::Op::kOrecCas, &orec);
      if (!orec.compare_exchange_strong(seen, my_lock_word(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed))
        // The CAS failure wrote the winner's word into `seen`.
        abort_tx(AbortCause::kLockConflict,
                 OrecTable::is_locked(seen)
                     ? static_cast<int>(OrecTable::version_of(seen))
                     : -1);
      tsan::acquire(&orec);  // synchronizes with the prior release
      locked_.push_back(LockedOrec{&orec, seen});
    }

    void validate_reads() {
      for (std::atomic<std::uint64_t>* orec : reads_) {
        sched::point(sched::Op::kOrecRead, orec);
        const std::uint64_t seen = orec->load(std::memory_order_acquire);
        if (seen == my_lock_word()) continue;
        if (OrecTable::is_locked(seen))
          abort_tx(AbortCause::kReadValidation,  // on_abort rolls back
                   static_cast<int>(OrecTable::version_of(seen)));
        if (OrecTable::version_of(seen) > rv_)
          abort_tx(AbortCause::kReadValidation);
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

    std::uint64_t rv_ = 0;
    bool serial_ = false;
    ReadLog<std::atomic<std::uint64_t>*> reads_;
    UndoLog undo_;
    std::vector<LockedOrec> locked_;
  };

  template <class F>
  static decltype(auto) atomically(F&& f) {
    return run_transaction<TlEager>(std::forward<F>(f));
  }

  /// Stop-the-world serial execution (mirrors Tl2::run_serial; see the
  /// retry-resume discussion there).
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
            TlEager::serial_flag().store(false, std::memory_order_seq_cst);
          }
        } resume_guard;
        quiescence().wait_all_inactive();
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
  static constexpr const char* name() noexcept { return "tleager"; }

  /// Writes land in place at encounter time, and an abort frees the
  /// attempt's allocations at once: a running transaction's plain load
  /// can return a pointer to memory that is about to be freed.
  static constexpr bool kBuffersWrites = false;

  static void quiesce_before_free() noexcept {
    quiescence().wait_until(orecs().clock());
  }

 private:
  static OrecTable& orecs() noexcept {
    static OrecTable table;  // separate domain from Tl2's
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
