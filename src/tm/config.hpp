#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/per_thread.hpp"

namespace hohtm::tm {

/// Runtime-tunable knobs for the TM runtime.
///
/// `serial_threshold` mirrors the GCC TM policy the paper relies on: a
/// transaction that aborts this many times re-executes in a serial
/// (irrevocable) mode that is guaranteed to commit. The paper used the
/// default of 2 for lists and raised it to 8 for trees (Section 5); the
/// Figure-A4 ablation bench sweeps this knob.
struct Config {
  static std::uint32_t serial_threshold() noexcept {
    return threshold_.load(std::memory_order_relaxed);
  }
  static void set_serial_threshold(std::uint32_t n) noexcept {
    threshold_.store(n, std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<std::uint32_t> threshold_{8};
};

/// Why a transaction aborted — or, for the last two entries, why a
/// hand-over-hand *operation* lost ground without any transaction
/// aborting. GCC TM hides both facts from the programmer (the paper's
/// stated obstacle to adaptive windows, §5.2); this taxonomy is the
/// library-owned answer.
enum class AbortCause : unsigned {
  kReadValidation = 0,   // read-set / value / orec-version validation failed
  kLockConflict,         // seqlock or orec acquisition lost to another owner
  kUserAbort,            // explicit tx.retry() from user code
  kSerialEscalation,     // retry budget exhausted; fell back to serial mode
  kRrRevocation,         // a Revoke(ref) was issued by this thread
  kHohRetry,             // a HOH op abandoned its position and restarted
  kFusionFallback,       // a fused (window-merged) attempt aborted and the
                         // op retreated to the small-window protocol
};
inline constexpr std::size_t kAbortCauseCount = 7;

/// Short stable identifiers, indexable by AbortCause; used verbatim as
/// bench CSV column names (see harness/report.cpp).
inline constexpr const char* kAbortCauseNames[kAbortCauseCount] = {
    "validation",  "lock",        "user", "serial_esc", "revocations",
    "hoh_retries", "fusion_fallbacks"};

/// Where a revocation was issued from — the "site" half of causal abort
/// attribution (the other half is the aborter's thread-registry slot).
/// Stamped into the RevocationBoard by `rr::note_revocation` from a
/// thread-local set by `rr::SiteScope` around each revoking operation,
/// and read back by the victim when it observes the loss.
enum class RevokeSite : unsigned {
  kUnknown = 0,  // no SiteScope active (or attribution unavailable)
  kListRemove,   // ds:: list Remove unlink-revoke-free
  kKvReplace,    // kv::Store put over an existing key
  kKvDelete,     // kv::Store del
  kMigration,    // kv::Store bucket migration window
};
inline constexpr std::size_t kRevokeSiteCount = 5;
inline constexpr const char* kRevokeSiteNames[kRevokeSiteCount] = {
    "unknown", "list_remove", "kv_replace", "kv_delete", "migration"};

/// Per-thread transaction counters, padded to avoid false sharing; each
/// slot is written only by its owning thread, so plain relaxed loads
/// suffice to aggregate.
struct StatCounters {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t serial_commits = 0;
  std::uint64_t user_retries = 0;
  /// Times this thread's own reservation was observed revoked (by a
  /// concurrent remover) when resuming a hand-over-hand operation. The
  /// flip side of by_cause[kRrRevocation], which counts revocations this
  /// thread *performed*.
  std::uint64_t reservation_losses = 0;
  /// Window boundaries elided by committed fused transactions (see
  /// ds::FusionState): each one is a release/reserve/commit/begin
  /// sequence that never ran. Only committed fusions count.
  std::uint64_t fused_windows = 0;
  /// Aborts suffered by attempts that were speculating past a window
  /// boundary. Under correct fallback behaviour this equals
  /// by_cause[kFusionFallback]; the sched mutant tests lean on that.
  std::uint64_t fused_aborts = 0;
  /// Quiescence fences executed by this thread (Quiescence::wait_until /
  /// wait_all_inactive entries). Backends only fence commits that carry
  /// deferred frees, so this counts the precise-reclamation synchrony an
  /// operation mix actually pays — the denominator the serving tier's
  /// batch fusion drives down (quiescence-waits/op, docs/SERVING.md).
  std::uint64_t quiescence_waits = 0;
  /// NOrec read-set revalidations (Norec::Tx::validate entries): a read
  /// that found the clock moved since its snapshot, or a writer commit
  /// whose seqlock acquire lost to another writer. The read fast path
  /// never validates, so this is the slow path's rate.
  std::uint64_t validations = 0;
  std::uint64_t by_cause[kAbortCauseCount] = {};

  /// Causal attribution ("who aborted whom"): one bucket per possible
  /// aborter thread-registry slot plus a final *unknown* bucket. Every
  /// attributed event increments exactly one bucket, so the buckets sum
  /// to the corresponding event total by construction — the invariant
  /// KvAttribution.ContendedCellBucketsSumExactlyToLosses and the
  /// SchedAttr.* tests assert.
  static constexpr std::size_t kAttrSlots = util::kMaxThreads + 1;
  static constexpr std::size_t kAttrUnknown = util::kMaxThreads;
  /// Reservation losses by the revoker's slot; sums to
  /// `reservation_losses` exactly (see WindowBoundary::note_position_lost).
  std::uint64_t loss_by_aborter[kAttrSlots] = {};
  /// Reservation losses by the revoker's site (kv delete vs. migration
  /// vs. list remove ...); same total as loss_by_aborter.
  std::uint64_t loss_by_site[kRevokeSiteCount] = {};
  /// Conflict aborts (lock / validation) by the owning writer's slot.
  /// Only attribution-bearing abort sites tick these (abort_tx with an
  /// aborter), so the buckets sum to ≤ `aborts`.
  std::uint64_t aborted_by[kAttrSlots] = {};
  /// kFusionFallback records that carried / lacked a known aborter id
  /// (the identity of the conflict that killed the fused attempt).
  std::uint64_t fusion_fb_attributed = 0;
  std::uint64_t fusion_fb_unknown = 0;

  void record(AbortCause cause) noexcept {
    by_cause[static_cast<unsigned>(cause)] += 1;
  }

  /// Attribute one reservation loss: `slot` is the revoker's registry
  /// slot (out-of-range means unknown), `site` indexes RevokeSite.
  void note_loss_attribution(int slot, unsigned site) noexcept {
    const std::size_t bucket =
        (slot >= 0 && slot < static_cast<int>(util::kMaxThreads))
            ? static_cast<std::size_t>(slot)
            : kAttrUnknown;
    loss_by_aborter[bucket] += 1;
    loss_by_site[site < kRevokeSiteCount ? site : 0] += 1;
  }

  /// Attribute one conflict abort to the owning writer's slot.
  void note_conflict_attribution(int slot) noexcept {
    const std::size_t bucket =
        (slot >= 0 && slot < static_cast<int>(util::kMaxThreads))
            ? static_cast<std::size_t>(slot)
            : kAttrUnknown;
    aborted_by[bucket] += 1;
  }

  /// Losses / conflict aborts whose aborter slot is known.
  std::uint64_t attributed_losses() const noexcept {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kAttrUnknown; ++i) sum += loss_by_aborter[i];
    return sum;
  }
  std::uint64_t unknown_losses() const noexcept {
    return loss_by_aborter[kAttrUnknown];
  }
  std::uint64_t attributed_aborts() const noexcept {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kAttrUnknown; ++i) sum += aborted_by[i];
    return sum;
  }

  std::uint64_t cause(AbortCause c) const noexcept {
    return by_cause[static_cast<unsigned>(c)];
  }

  /// The combined contention signal the adaptive-window tuner diffs
  /// across an operation (see ds::WindowTuner). Raw `aborts` alone is
  /// blind to hand-over-hand contention: a revoked reservation makes the
  /// operation restart from the head with every transaction *committing*,
  /// so the two operation-level counters must be folded in. Revocations
  /// *performed* are deliberately excluded — a remover revoking its
  /// victim is normal work, not back-pressure against the remover.
  std::uint64_t contention_signal() const noexcept {
    return aborts + reservation_losses + cause(AbortCause::kHohRetry);
  }

  void accumulate(const StatCounters& other) noexcept {
    commits += other.commits;
    aborts += other.aborts;
    serial_commits += other.serial_commits;
    user_retries += other.user_retries;
    reservation_losses += other.reservation_losses;
    fused_windows += other.fused_windows;
    fused_aborts += other.fused_aborts;
    quiescence_waits += other.quiescence_waits;
    validations += other.validations;
    for (std::size_t i = 0; i < kAbortCauseCount; ++i)
      by_cause[i] += other.by_cause[i];
    for (std::size_t i = 0; i < kAttrSlots; ++i) {
      loss_by_aborter[i] += other.loss_by_aborter[i];
      aborted_by[i] += other.aborted_by[i];
    }
    for (std::size_t i = 0; i < kRevokeSiteCount; ++i)
      loss_by_site[i] += other.loss_by_site[i];
    fusion_fb_attributed += other.fusion_fb_attributed;
    fusion_fb_unknown += other.fusion_fb_unknown;
  }
};

class Stats {
 public:
  static StatCounters& mine() noexcept { return slots_.mine(); }

  static StatCounters total() noexcept {
    StatCounters sum;
    for (const auto& s : slots_.live()) sum.accumulate(s.value);
    return sum;
  }

  static void reset() noexcept {
    for (auto& s : slots_.live()) s.value = StatCounters{};
  }

 private:
  static constinit inline util::PerThread<StatCounters> slots_;
};

}  // namespace hohtm::tm
