#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace hohtm::sched {

/// Compile-time master switch for the schedule-exploration hooks, set by
/// the HOHTM_SCHED CMake option (mirrors HOHTM_TRACE / util::kTraceBuild).
/// When false every hook below is an empty inline function, so the
/// instrumented TM/RR hot paths compile to exactly the uninstrumented
/// code. The *machinery* (Scheduler, explorers) is always compiled and
/// unit-tested in every build; only the hooks are gated.
#ifdef HOHTM_SCHED_ENABLED
inline constexpr bool kSchedBuild = true;
#else
inline constexpr bool kSchedBuild = false;
#endif

/// What kind of shared-memory access the instrumented thread is *about
/// to* perform. A SchedPoint fires immediately before the access, so the
/// scheduler chooses which thread performs its next access — the classic
/// loom/relacy/CHESS execution model. Names appear in printed schedules.
enum class Op : std::uint8_t {
  kYield = 0,         // explicit yield (scenario code, thread start)
  kClockRead,         // seqlock / global-version-clock read
  kLockAcquire,       // seqlock CAS even->odd
  kLockRelease,       // seqlock release store
  kClockAdvance,      // TL2/TLEager global clock fetch_add
  kOrecRead,          // ownership-record load
  kOrecCas,           // ownership-record acquire CAS
  kOrecRelease,       // ownership-record release store
  kTmLoad,            // transactional data-word load
  kTmStore,           // transactional data-word store
  kQuiescePublish,    // quiescence slot publish
  kQuiesceDeactivate, // quiescence slot clear
  kQuiesceWait,       // committer blocked on the quiescence fence
  kRrReserve,         // reservation Reserve
  kRrGet,             // reservation Get
  kRrRevoke,          // reservation Revoke
  kBackoff,           // retry-loop backoff pause
  kUserMark,          // scenario-defined marker
  kKvMigrate,         // kv store: bucket-migration window boundary
  kKvScanPark,        // kv store: scan-cursor window boundary
};
inline constexpr std::size_t kOpCount = 20;
extern const char* const kOpNames[kOpCount];

/// Bug-injection mutants used to validate the explorer itself: each one
/// disables a correctness-critical step in the real code, and the
/// schedule-exploration suite asserts the explorer catches it within a
/// bounded number of schedules (tests/sched/). The checks are compiled
/// out entirely unless HOHTM_SCHED=ON, so production builds carry no
/// mutation branches.
enum class Mutation : unsigned {
  kNone = 0,
  kSkipQuiescenceWait,   // Quiescence::wait_until returns immediately
  kDropRevoke,           // RR Revoke keeps the ownership stamp intact
  kSkipReadValidation,   // TML/NOrec reads skip the post-load clock
                         // check; TL2/TLEager reads skip the orec re-check
  kDropMigrationReserve, // kv migration parks its anchor without reserving
  kFusionNeverFallback,  // fused traversal keeps speculating after an abort
  kDropAborterId,        // revokers/aborters omit their identity stamp
  kDropScanCursorHandover, // kv scan parks its cursor without reserving
  kPrivateWriteBackOnAbort, // aborted tx still writes back private cells
};

namespace detail {
// Always compiled (harmless one word); only consulted in sched builds.
inline std::atomic<unsigned> g_mutation{0};

// Implemented in scheduler.cpp. No-ops unless the calling thread is a
// logical thread of an active Scheduler run.
void point_impl(Op op, const void* addr) noexcept;
bool spin_wait_impl(Op op, bool (*ready)(void*), void* ctx) noexcept;
bool managed_impl() noexcept;
}  // namespace detail

/// Activate a mutant (tests only; pass kNone to restore). Settable in
/// every build so mutant tests can assert inertness without the gate.
inline void set_mutation(Mutation m) noexcept {
  detail::g_mutation.store(static_cast<unsigned>(m),
                           std::memory_order_relaxed);
}

/// True iff mutant `m` is active. Constant-false outside sched builds:
/// the injected-bug branches vanish from production code.
inline bool mutate(Mutation m) noexcept {
  if constexpr (kSchedBuild) {
    return detail::g_mutation.load(std::memory_order_relaxed) ==
           static_cast<unsigned>(m);
  } else {
    (void)m;
    return false;
  }
}

/// True iff the calling thread is a logical thread of an active
/// Scheduler run (always false outside sched builds).
inline bool managed() noexcept {
  if constexpr (kSchedBuild) return detail::managed_impl();
  return false;
}

/// SchedPoint: yield to the virtual scheduler immediately before
/// performing shared-memory access `op` on `addr`. Nothing happens (and
/// nothing is compiled in) unless this is a sched build AND the calling
/// thread is managed — the rest of the test suite runs at full speed.
inline void point(Op op, const void* addr = nullptr) noexcept {
  if constexpr (kSchedBuild) detail::point_impl(op, addr);
}

/// Blocking SchedPoint for unbounded spin loops (seqlock wait_even, the
/// quiescence fence): the calling thread becomes *disabled* until
/// `pred()` holds, so blocked threads are not scheduling choices and
/// exhaustive exploration stays finite.
///
/// Returns true when the scheduler resumed the thread with `pred()` true
/// (the caller may proceed); false when the thread is unmanaged or the
/// run was cancelled — the caller MUST fall through to its real spin
/// loop. `pred` is evaluated on the scheduler's thread while every
/// logical thread is parked; it must be read-only.
template <class Pred>
inline bool spin_wait(Op op, Pred&& pred) noexcept {
  if constexpr (kSchedBuild) {
    if (detail::managed_impl()) {
      using P = std::remove_reference_t<Pred>;
      return detail::spin_wait_impl(
          op, [](void* ctx) { return (*static_cast<P*>(ctx))(); },
          const_cast<std::remove_const_t<P>*>(&pred));
    }
  } else {
    (void)op;
    (void)pred;
  }
  return false;
}

}  // namespace hohtm::sched
