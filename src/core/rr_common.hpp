#pragma once

#include <concepts>
#include <cstdint>

#include "sched/schedpoint.hpp"
#include "tm/tm.hpp"
#include "util/cacheline.hpp"
#include "util/thread_registry.hpp"
#include "util/trace.hpp"
#include "util/tsan.hpp"

namespace hohtm::rr {

/// A *reference* is an opaque pointer to a node of some client data
/// structure. Reservations never dereference it — they only store, compare,
/// and return it — which is exactly what lets a reserved node be freed.
using Ref = const void*;

/// Multiplicative pointer hash used by the hash-indexed reservation
/// algorithms (RR-DM/SA map references to bucket lists; RR-XO/SO/V map
/// them to metadata slots). Low bits are dropped first: node allocations
/// are at least 16-byte aligned, so they carry no entropy.
inline std::size_t hash_ref(Ref ref, std::size_t log2_buckets) noexcept {
  if (log2_buckets == 0) return 0;  // a 64-bit shift would be UB
  auto key = reinterpret_cast<std::uintptr_t>(ref) >> 4;
  key *= 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(key >> (64 - log2_buckets));
}

/// Compile-time contract for a revocable-reservation implementation.
/// All five methods must be called from inside a transaction (they take
/// the Tx); the sequential specification is Listing 1 of the paper.
///
/// Traits:
///  - kStrict: Get returns nil only if the reservation was released or the
///    reserved reference revoked (Section 3.1). Relaxed implementations
///    (kStrict == false) may return nil spuriously (Section 3.2), which
///    forbids the doubly-linked-list remove optimization.
///  - kReal: false only for RrNull, the no-op used to express the
///    single-big-transaction baseline through the same data-structure code.
template <class R, class TM>
concept Reservation =
    tm::TMBackend<TM> && requires(R r, typename TM::Tx& tx, Ref ref) {
      { r.register_thread(tx) };
      { r.reserve(tx, ref) };
      { r.release(tx) };
      { r.get(tx) } -> std::same_as<Ref>;
      { r.revoke(tx, ref) };
      { R::kStrict } -> std::convertible_to<bool>;
      { R::kReal } -> std::convertible_to<bool>;
      { R::name() } -> std::convertible_to<const char*>;
    };

/// The calling thread's current revocation site, maintained by SiteScope
/// RAII guards around each revoking operation (kv put/del/migration,
/// list removes). Read by note_revocation when it stamps the board.
inline tm::RevokeSite& current_revoke_site() noexcept {
  thread_local tm::RevokeSite site = tm::RevokeSite::kUnknown;
  return site;
}

/// Scoped revocation-site marker: `SiteScope scope(RevokeSite::kKvDelete)`
/// makes every revocation issued on this thread within the scope carry
/// that site in its attribution record. Nesting restores the outer site.
class SiteScope {
 public:
  explicit SiteScope(tm::RevokeSite site) noexcept
      : previous_(current_revoke_site()) {
    current_revoke_site() = site;
  }
  ~SiteScope() { current_revoke_site() = previous_; }
  SiteScope(const SiteScope&) = delete;
  SiteScope& operator=(const SiteScope&) = delete;

 private:
  tm::RevokeSite previous_;
};

/// What a victim learns about the revocation that cost it its parked
/// reference: the revoker's thread-registry slot and site, or
/// `known == false` when no (matching) record exists — e.g. the loss came
/// from a table growth changing hash widths, or the record was already
/// overwritten by a later revocation hashing to the same board entry.
struct Attribution {
  int slot = -1;
  unsigned site = 0;  // indexes tm::RevokeSite
  bool known = false;
};

/// RevocationBoard: the aborter→victim identity channel behind causal
/// abort attribution ("who aborted whom", docs/OBSERVABILITY.md).
///
/// A fixed hash-indexed array of single-word records. A revoker *publishes*
/// (fingerprint of the revoked ref, its own slot, its SiteScope site) with
/// one release store in `note_revocation`; a victim that later observes its
/// reservation gone *attributes* the loss with one acquire load, accepting
/// the record only when the fingerprint matches its parked ref. Records
/// are never cleared in production: a later revocation of a colliding ref
/// simply overwrites, and a stale same-ref record yields (rare, harmless)
/// misattribution — the per-aborter buckets stay exact in *sum* because
/// every loss increments exactly one bucket (see tm::StatCounters).
class RevocationBoard {
 public:
  static constexpr std::size_t kLog2Entries = 8;

  static void publish(Ref ref, unsigned site) noexcept {
    if (ref == nullptr) return;
    entries_[hash_ref(ref, kLog2Entries)].value.store(
        pack(ref, site, util::ThreadRegistry::slot()),
        std::memory_order_release);
  }

  static Attribution attribute(Ref ref) noexcept {
    if (ref == nullptr) return {};
    const std::uint64_t record =
        entries_[hash_ref(ref, kLog2Entries)].value.load(
            std::memory_order_acquire);
    if (record == 0 || (record >> 16) != fingerprint(ref)) return {};
    return Attribution{static_cast<int>((record & 0xFF) - 1),
                       static_cast<unsigned>((record >> 8) & 0xFF), true};
  }

  /// Quiescent-only (sched scenarios, tests): forget all records so a
  /// fresh schedule cannot inherit a previous schedule's attributions.
  static void reset_for_testing() noexcept {
    for (auto& entry : entries_)
      entry.value.store(0, std::memory_order_release);
  }

 private:
  // Record layout: [63:16] ref fingerprint, [15:8] site, [7:0] slot + 1
  // (so an all-zero word is unambiguously "empty").
  static std::uint64_t fingerprint(Ref ref) noexcept {
    return (reinterpret_cast<std::uintptr_t>(ref) >> 4) & 0xFFFFFFFFFFFFULL;
  }
  static std::uint64_t pack(Ref ref, unsigned site,
                            std::size_t slot) noexcept {
    return (fingerprint(ref) << 16) |
           (static_cast<std::uint64_t>(site & 0xFF) << 8) |
           ((slot + 1) & 0xFF);
  }

  static inline util::CachePadded<std::atomic<std::uint64_t>>
      entries_[std::size_t{1} << kLog2Entries] = {};
};

/// Tally one performed revocation on the calling thread's telemetry
/// (tm::Stats abort-cause taxonomy). Every Revoke implementation calls
/// this. Counted at the call, not at commit, so an aborted transaction
/// that re-executes its Revoke counts each attempt — the same convention
/// the TM backends use for abort causes (and the trace events below).
/// Also publishes the revoker's identity to the RevocationBoard (skipped
/// under the kDropAborterId mutant, which the sched attribution tests
/// must catch via the victim-side invariant).
inline void note_revocation(Ref ref = nullptr) noexcept {
  sched::point(sched::Op::kRrRevoke, ref);
  // The revoker's unlink of `ref` happens-before the node's free (which
  // its own commit gates behind quiescence); mirrored per-node for TSan
  // so a report on freed node memory names the reservation choreography.
  tsan::release(ref);
  if (!sched::mutate(sched::Mutation::kDropAborterId))
    RevocationBoard::publish(
        ref, static_cast<unsigned>(current_revoke_site()));
  tm::Stats::mine().record(tm::AbortCause::kRrRevocation);
  util::trace_event(util::Ev::kRrRevoke,
                    reinterpret_cast<std::uintptr_t>(ref));
}

/// Bug-injection mutant: when enabled, every Revoke implementation turns
/// into a no-op right after its telemetry fires. The schedule explorer
/// must then find an interleaving where a traverser's Get returns a
/// reference that is freed under it — validating that the exploration
/// actually exercises the reserve/revoke race.
inline bool mutation_drops_revoke() noexcept {
  return sched::mutate(sched::Mutation::kDropRevoke);
}

/// Trace-only markers (no counters): every Reserve/Get implementation
/// calls these so a trace shows the hand-over-hand choreography — which
/// references were parked, and which Gets came back nil (arg 0) because
/// a remover revoked or a collision evicted. Attempt-level, like the
/// revocation tally. Compiled out entirely in non-trace builds.
inline void note_reserve(Ref ref) noexcept {
  sched::point(sched::Op::kRrReserve, ref);
  tsan::release(ref);  // this thread's accesses to ref, up to the park
  util::trace_event(util::Ev::kRrReserve,
                    reinterpret_cast<std::uintptr_t>(ref));
}
inline void note_get(Ref ref) noexcept {
  sched::point(sched::Op::kRrGet, ref);
  util::trace_event(util::Ev::kRrGet, reinterpret_cast<std::uintptr_t>(ref));
}

/// Per-slot thread-generation tracking shared by all implementations.
///
/// The paper's Register() runs once per thread; in this library thread
/// slots are recycled, so "once per thread" becomes "whenever the slot's
/// recorded generation differs from the calling thread's". A reservation
/// object whose slot was inherited from a dead thread must scrub that
/// slot's state (a stale reservation would hand the new thread a dangling
/// reference). Only the slot's owner reads its stamp, so the stamps are
/// PrivateCells: the per-window check adds nothing to the read set, and
/// an aborted registration still unwinds its stamp.
class SlotGenerations {
 public:
  template <class Tx>
  bool is_registered(Tx& tx) {
    return tx.read_private(gen_.mine()) == util::ThreadRegistry::generation();
  }

  template <class Tx>
  void mark_registered(Tx& tx) {
    tx.write_private(gen_.mine(), util::ThreadRegistry::generation());
  }

 private:
  tm::PrivateSlots<tm::PrivateCell<std::uint64_t>> gen_;
};

}  // namespace hohtm::rr
