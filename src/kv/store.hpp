#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc/object.hpp"
#include "core/rr.hpp"
#include "ds/window_policy.hpp"
#include "ds/window_tuner.hpp"
#include "kv/contention.hpp"
#include "reclaim/gauge.hpp"
#include "sched/schedpoint.hpp"
#include "tm/tm.hpp"
#include "util/cacheline.hpp"
#include "util/random.hpp"
#include "util/thread_registry.hpp"
#include "util/trace.hpp"

namespace hohtm::kv {

/// Request opcodes shared by Store telemetry, Service, and the trace
/// taxonomy (util::Ev::kKvOpStart carries the index). kBatch carries a
/// pipelined group of ops through the Service ring in one request;
/// kStats asks for a Service::stats_snapshot() (both PR 10, the serving
/// tier — see docs/SERVING.md).
enum class OpCode : std::uint8_t {
  kGet = 0,
  kPut,
  kDel,
  kScan,
  kStop,
  kBatch,
  kStats,
};

/// One operation inside a pipelined batch (an OpCode::kBatch request).
/// The serving tier decodes a pipeline read into an array of these; the
/// Service worker hands contiguous runs to Store::run_batch, which fuses
/// consecutive same-shard ops into one window transaction. Result fields
/// are written by the executor and read back by the submitter after the
/// batch's Completion signals.
struct BatchOp {
  OpCode op = OpCode::kGet;
  std::string key;
  std::string value;       // kPut payload
  std::uint32_t scan_limit = 0;
  // Results:
  bool hit = false;        // get/del: key was present; put: newly inserted
  std::string out;         // get: value copy; stats: JSON snapshot
  std::uint32_t scan_count = 0;
};

/// Batching-efficiency telemetry accumulated by Store::run_batch.
struct BatchCounters {
  std::uint64_t fused_ops = 0;   // ops committed inside a 2+-op fused group
  std::uint64_t batch_txs = 0;   // fused group transactions committed
};

namespace detail {

/// Chain node: header plus a tail of key bytes then value bytes in one
/// pool block (alloc::create_flex). Everything but `next` is immutable
/// after the node is published by a committed chain-pointer write, so
/// readers may copy key/value bytes with plain loads: the publishing
/// commit happens-before any validated read of the pointer, and the
/// quiescence fence keeps the block alive for every transaction that
/// could have observed it (docs/KV.md, "why plain payload reads are
/// safe").
struct Node {
  Node* next;
  std::uint64_t hash;
  std::uint32_t klen;
  std::uint32_t vlen;

  Node(Node* n, std::uint64_t h, std::uint32_t kl, std::uint32_t vl) noexcept
      : next(n), hash(h), klen(kl), vlen(vl) {}

  const char* bytes() const noexcept {
    return reinterpret_cast<const char*>(this + 1);
  }
  char* bytes() noexcept { return reinterpret_cast<char*>(this + 1); }
  std::string_view key() const noexcept { return {bytes(), klen}; }
  std::string_view value() const noexcept { return {bytes() + klen, vlen}; }
};

/// Bucket-slot table: header plus 2^log2 chain-head slots in one pool
/// block. `log2` is immutable; the slots are transactional words.
struct Table {
  std::uint64_t log2;
  explicit Table(std::uint64_t l) noexcept : log2(l) {}
  std::size_t buckets() const noexcept { return std::size_t{1} << log2; }
  Node** slots() noexcept { return reinterpret_cast<Node**>(this + 1); }
};

/// Tag stamped into a fully migrated old-table slot (never dereferenced;
/// distinct from nullptr so an *empty but unmigrated* bucket still gets
/// migrated exactly once and decrements the remaining-bucket count).
inline Node* moved_tag() noexcept {
  alignas(16) static char tag;
  return reinterpret_cast<Node*>(&tag);
}

/// 64-bit FNV-1a over the key bytes, finalized with splitmix64 so the
/// top bits (which route shards and buckets) are well mixed.
inline std::uint64_t hash_bytes(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return util::splitmix64(h);
}

/// Chain order: by hash, ties broken lexicographically by key. Chains
/// sorted this way split in place on a grow — an old bucket's chain is
/// the concatenation of its two child buckets' chains, because the child
/// index is the next hash bit below the old bucket index.
inline bool precedes(std::uint64_t ha, std::string_view ka, std::uint64_t hb,
                     std::string_view kb) noexcept {
  if (ha != hb) return ha < hb;
  return ka < kb;
}

/// Bucket of `h` in a table of 2^log2 buckets, after the top
/// `log2_shards` bits routed the shard.
inline std::size_t bucket_index(std::uint64_t h, std::uint64_t log2,
                                std::size_t log2_shards) noexcept {
  if (log2 == 0) return 0;
  return static_cast<std::size_t>((h << log2_shards) >> (64 - log2));
}

/// Migration-anchor handover (docs/KV.md). At a window boundary the
/// migrator has just linked `anchor` into the NEW table's chain; parking
/// hands the reservation from the old-table chain to the new-table one,
/// so the next window resumes its sorted insertion scan from the anchor
/// instead of the bucket head. A concurrent delete of the anchor revokes
/// it, Get returns nil, and the migrator restarts from the head — the
/// same discipline as the Listing-5 traversal.
///
/// The kDropMigrationReserve mutant skips the reserve and resumes
/// through a raw cached pointer: exactly the stale-resume bug the
/// reservation prevents. tests/sched/sched_kv_test.cpp proves the
/// schedule explorer catches it.
///
/// Thin wrappers over ds::WindowBoundary (the one policy object every
/// HOH boundary speaks), kept so sched scenarios can mirror the store's
/// calls verbatim.
template <class RR, class Tx>
void park_anchor(RR& rr, Tx& tx, rr::Ref anchor, rr::Ref& raw_cache) {
  ds::WindowBoundary<RR>(rr).park_anchor(tx, anchor, raw_cache);
}

template <class RR, class Tx>
rr::Ref resume_anchor(RR& rr, Tx& tx, rr::Ref raw_cache) {
  return ds::WindowBoundary<RR>(rr).resume_anchor(tx, raw_cache);
}

/// Scan-cursor handover (docs/KV.md, "Range scans"). At a scan's window
/// boundary the last node the window *walked past* is parked in the
/// reservation; the next window resumes mid-chain from it instead of
/// reseeking the bucket. A concurrent delete of the cursor node revokes
/// it, Get returns nil, and the scan reseeks from its remembered
/// (hash, key) position — never from scratch.
///
/// The kDropScanCursorHandover mutant skips the reserve and resumes
/// through a raw cached pointer: the stale-resume bug the reservation
/// prevents. tests/sched/sched_scan_test.cpp proves the schedule
/// explorer catches it.
///
/// Thin wrappers over ds::WindowBoundary, kept so sched scenarios can
/// mirror the store's calls verbatim.
template <class RR, class Tx>
void park_scan_cursor(RR& rr, Tx& tx, rr::Ref cursor, rr::Ref& raw_cache) {
  ds::WindowBoundary<RR>(rr).park_cursor(tx, cursor, raw_cache);
}

template <class RR, class Tx>
rr::Ref resume_scan_cursor(RR& rr, Tx& tx, rr::Ref raw_cache) {
  return ds::WindowBoundary<RR>(rr).resume_cursor(tx, raw_cache);
}

}  // namespace detail

/// Sharded, incrementally resizable transactional hash map with
/// hand-over-hand bucket-chain traversal and precise reclamation.
///
///  - The top `log2_shards` hash bits pick a shard; each shard owns a
///    bucket-slot table (and, mid-resize, the previous one). Chains are
///    sorted by (hash, key) and traversed with the Listing-5 window
///    protocol: at most `window` nodes per transaction, the boundary
///    node parked in the shared reservation, resumed via Get.
///  - Deletes (and overwrites, which replace the node so values stay
///    immutable in place) unlink, revoke, and `tx.dealloc` the node in
///    one transaction: the store's footprint is exactly its occupancy.
///  - A grow installs a double-size table and keeps the old one. An
///    operation's own window transaction checks the key's old bucket;
///    only when that bucket is unmigrated does the op migrate it (a
///    window's worth of nodes per transaction, the insertion anchor
///    handed over through the reservation) and restart its walk. An op
///    that saw the resize also helps migrate one extra bucket, so on a
///    settled shard every get/put/del is exactly one transaction.
///    The transaction that empties the last old bucket frees the old
///    table with `tx.dealloc` — precise, no epoch grace period.
///
/// Works with every TM backend x RR variant, like the src/ds/
/// structures; RrNull + kUnbounded window expresses the
/// one-big-transaction baseline.
template <class TM, class RR>
class Store {
 public:
  using Tx = typename TM::Tx;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  struct Options {
    std::size_t log2_shards = 2;        // shard count = 2^n
    std::size_t log2_buckets = 2;       // initial buckets per shard
    std::size_t max_log2_buckets = 20;  // per-shard growth cap
    int window = 16;                    // HOH window, nodes per transaction
    int grow_chain = 8;                 // insert-observed chain length that
                                        // triggers a grow
    bool auto_migrate = true;           // ops help migrate one extra bucket
    int fusion_cap = 0;                 // per-op window-fusion budget behind
                                        // the tuner's contention gate; 0 = off
  };

  template <class... RrArgs>
  explicit Store(Options opt = Options{}, RrArgs&&... rr_args)
      : opt_(opt),
        shard_count_(std::size_t{1} << opt.log2_shards),
        shards_(std::make_unique<util::CachePadded<Shard>[]>(shard_count_)),
        reservation_(std::forward<RrArgs>(rr_args)...) {
    for (std::size_t s = 0; s < shard_count_; ++s)
      shards_[s].value.cur = make_table(opt_.log2_buckets);
    // Fixed window, so the tuner acts purely as the per-thread fusion
    // governor: quiet threads earn a budget, contended ones lose it.
    if (opt_.fusion_cap > 0)
      fusion_gate_ = std::make_unique<ds::WindowTuner>(
          opt_.window, opt_.window, opt_.fusion_cap);
  }

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  ~Store() {
    for (std::size_t s = 0; s < shard_count_; ++s) {
      destroy_table(shards_[s].value.old);
      destroy_table(shards_[s].value.cur);
    }
  }

  /// Insert or overwrite; true if the key was newly inserted.
  bool put(std::string_view key, std::string_view value) {
    return put_hashed(detail::hash_bytes(key), key, value);
  }

  /// Copy the value out; false if the key is absent.
  bool get(std::string_view key, std::string& value_out) {
    return get_hashed(detail::hash_bytes(key), key, value_out);
  }

  /// Unlink, revoke, and free the node in one transaction; false if the
  /// key is absent.
  bool del(std::string_view key) {
    return del_hashed(detail::hash_bytes(key), key);
  }

  /// Visit up to `limit` entries in canonical (hash, key) order — a
  /// deterministic total order over all keys, globally ascending across
  /// shard and bucket boundaries — starting at `start_key`'s position
  /// (inclusive when present). Returns the visit count. The traversal is
  /// multi-window: each transaction walks at most `Options::window`
  /// nodes and parks the boundary node as a *scan cursor* in the
  /// reservation (detail::park_scan_cursor); on revocation the scan
  /// reseeks from its remembered (hash, key) position, never from
  /// scratch. `fn(key, value)` runs outside any transaction, once per
  /// entry, and may re-enter the store (docs/KV.md, "Range scans").
  template <class F>
  std::size_t scan_from(std::string_view start_key, std::size_t limit,
                        F&& fn) {
    return scan_impl(false, start_key, limit, std::forward<F>(fn));
  }

  /// Whole-store scan from the beginning of canonical order.
  template <class F>
  std::size_t scan(std::size_t limit, F&& fn) {
    return scan_impl(true, std::string_view{}, limit, std::forward<F>(fn));
  }

  /// Shard that owns `key` — the serving tier's grouping key: consecutive
  /// pipeline ops with equal shard_of_key can fuse into one transaction.
  std::size_t shard_of_key(std::string_view key) const noexcept {
    return shard_index(detail::hash_bytes(key));
  }

  /// Execute a pipelined batch in order, fusing runs of consecutive
  /// same-shard keyed ops (get/put/del) into single window transactions
  /// under the tuner's fusion budget (docs/SERVING.md, "Batch-boundary
  /// fusion"). A fused group of k ops pays one commit — and, when it
  /// frees nodes, one quiescence fence — instead of k. Scans execute
  /// unfused via their own multi-window machinery; result fields are
  /// written into each BatchOp. Ops that cannot fuse (budget drained,
  /// window overflow, unmigrated bucket, fusion disabled) fall back to the
  /// ordinary one-op-per-window path, so semantics match issuing the
  /// ops back to back. Each key is hashed once, up front, and a batch of
  /// two or more keyed ops first runs prefetch_batch, so its bucket-slot
  /// and chain-head cache misses overlap instead of being paid one op at
  /// a time.
  void run_batch(BatchOp* ops, std::size_t n, BatchCounters& bc) {
    std::vector<std::uint64_t> hashes(n);
    std::size_t keyed_ops = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (!keyed(ops[k].op)) continue;
      hashes[k] = detail::hash_bytes(ops[k].key);
      ++keyed_ops;
    }
    if (keyed_ops >= 2) prefetch_batch(ops, hashes.data(), n);
    std::size_t i = 0;
    while (i < n) {
      BatchOp& op = ops[i];
      if (op.op == OpCode::kScan) {
        op.scan_count = static_cast<std::uint32_t>(scan_from(
            op.key, op.scan_limit, [](std::string_view, std::string_view) {}));
        op.hit = op.scan_count > 0;
        ++i;
        continue;
      }
      if (!keyed(op.op)) {  // kStats handled by the Service worker
        ++i;
        continue;
      }
      const std::size_t sh = shard_index(hashes[i]);
      std::size_t j = i + 1;
      while (j < n && keyed(ops[j].op) && shard_index(hashes[j]) == sh) ++j;
      if (j - i == 1 || fusion_gate_ == nullptr) {
        run_single(ops[i], hashes[i]);
        ++i;
      } else {
        i = run_fused_group(shards_[sh].value, sh, ops, hashes.data(), i, j,
                            bc);
      }
    }
  }

  /// Number of entries; one transaction per shard (diagnostic use).
  std::size_t size() {
    std::size_t total = 0;
    for (std::size_t s = 0; s < shard_count_; ++s) {
      Shard& sh = shards_[s].value;
      total += TM::atomically([&](Tx& tx) -> std::size_t {
        return count_table(tx, tx.read(sh.old)) +
               count_table(tx, tx.read(sh.cur));
      });
    }
    return total;
  }

  /// Structural invariants, one transaction per shard: chains strictly
  /// sorted and correctly homed, each key in exactly one chain, and the
  /// old table's remaining-bucket count matching its unmigrated slots.
  bool is_consistent() {
    for (std::size_t s = 0; s < shard_count_; ++s) {
      Shard& sh = shards_[s].value;
      std::set<std::pair<std::uint64_t, std::string>> seen;
      const bool ok = TM::atomically([&](Tx& tx) -> bool {
        seen.clear();
        detail::Table* cur = tx.read(sh.cur);
        detail::Table* old = tx.read(sh.old);
        if (!check_table(tx, cur, s, false, seen)) return false;
        if (old != nullptr) {
          if (!check_table(tx, old, s, true, seen)) return false;
          std::uint64_t unmigrated = 0;
          for (std::size_t b = 0; b < old->buckets(); ++b)
            if (tx.read(old->slots()[b]) != detail::moved_tag())
              ++unmigrated;
          if (unmigrated != tx.read(sh.old_left)) return false;
        }
        return true;
      });
      if (!ok) return false;
    }
    return true;
  }

  /// Drive every shard's migration to completion (old tables freed).
  /// Test/bench helper: lets precise-free assertions run without sleeps.
  void finish_migration() {
    for (std::size_t s = 0; s < shard_count_; ++s) {
      Shard& sh = shards_[s].value;
      for (;;) {
        const std::size_t buckets = TM::atomically([&](Tx& tx) -> std::size_t {
          detail::Table* old = tx.read(sh.old);
          return old == nullptr ? 0 : old->buckets();
        });
        if (buckets == 0) break;
        for (std::size_t b = 0; b < buckets; ++b) {
          MigrationCursor cursor;
          while (!migrate_window(sh, Pick::kByIndex, b, cursor)) {
          }
        }
      }
    }
  }

  /// Run exactly one migration window on the shard and bucket owning
  /// `key` (sched-scenario hook; ops normally migrate implicitly).
  /// Returns true when that bucket needs no further migration work.
  bool migrate_bucket_window_for(std::string_view key) {
    const std::uint64_t h = detail::hash_bytes(key);
    MigrationCursor cursor;
    return migrate_window(shard_of(h), Pick::kByHash, h, cursor);
  }

  /// Total buckets across the shards' current tables.
  std::size_t bucket_count() {
    std::size_t total = 0;
    for (std::size_t s = 0; s < shard_count_; ++s) {
      Shard& sh = shards_[s].value;
      total += TM::atomically(
          [&](Tx& tx) { return tx.read(sh.cur)->buckets(); });
    }
    return total;
  }

  /// True while any shard still holds an old table (mid-resize).
  bool migrating() {
    for (std::size_t s = 0; s < shard_count_; ++s) {
      Shard& sh = shards_[s].value;
      if (TM::atomically([&](Tx& tx) { return tx.read(sh.old) != nullptr; }))
        return true;
    }
    return false;
  }

  std::size_t shard_count() const noexcept { return shard_count_; }

  /// Gauge-counted objects the reservation algorithm owns (e.g. RR-FA and
  /// RR-DM allocate one per-thread node on first registration, freed only
  /// when the store dies). Lets tests assert Gauge-exact accounting across
  /// every RR variant. Quiescent-only, like the destructor.
  std::size_t reservation_overhead() const noexcept {
    if constexpr (requires(const RR& r) { r.gauge_owned(); })
      return reservation_.gauge_owned();
    else
      return 0;
  }

  std::uint64_t migrated_buckets() const noexcept {
    return migrated_buckets_.load(std::memory_order_relaxed);
  }
  std::uint64_t tables_swapped() const noexcept {
    return tables_swapped_.load(std::memory_order_relaxed);
  }
  std::uint64_t tables_retired() const noexcept {
    return tables_retired_.load(std::memory_order_relaxed);
  }

  /// Scan telemetry: ops started, committed window transactions, and
  /// cursor resumes (a parked cursor was lost — revoked, reused by a
  /// visitor op, or invalidated by a grow — and the scan reseeked from
  /// its remembered position). Resumes stay zero for RrNull, where no
  /// reservation carries the cursor in the first place.
  std::uint64_t scans() const noexcept {
    return scans_.load(std::memory_order_relaxed);
  }
  std::uint64_t scan_windows() const noexcept {
    return scan_windows_.load(std::memory_order_relaxed);
  }
  std::uint64_t scan_resumes() const noexcept {
    return scan_resumes_.load(std::memory_order_relaxed);
  }

  static const char* reservation_name() noexcept { return RR::name(); }

  /// Test-only: invoked inside the mutating transaction right after the
  /// op's callback ran; throwing from it must roll the whole attempt
  /// back (exercised by the kv differential script).
  void set_fail_hook_for_testing(std::function<void()> hook) {
    fail_hook_ = std::move(hook);
  }

 private:
  struct Shard {
    detail::Table* cur = nullptr;      // transactional word
    detail::Table* old = nullptr;      // transactional word; null = settled
    std::uint64_t old_left = 0;        // transactional; unmigrated buckets
    std::atomic<std::uint64_t> hint{0};  // helper cursor, non-transactional
  };

  /// Outcome of one traversal window transaction.
  enum class Step : std::uint8_t { kFalse, kTrue, kHandover, kMigrate };

  /// How migrate_window selects its old-table bucket.
  enum class Pick : std::uint8_t { kByHash, kByIndex };

  /// Anchor-handover state carried across one bucket's migration windows.
  struct MigrationCursor {
    rr::Ref raw_cache = nullptr;   // kDropMigrationReserve mutant only
    std::uint64_t parked_log2 = 0;  // cur-table generation at the park
    bool parked = false;
  };

  std::size_t shard_index(std::uint64_t h) const noexcept {
    if (opt_.log2_shards == 0) return 0;
    return static_cast<std::size_t>(h >> (64 - opt_.log2_shards));
  }
  Shard& shard_of(std::uint64_t h) noexcept {
    return shards_[shard_index(h)].value;
  }

  detail::Table* make_table(std::uint64_t log2) {
    const std::size_t buckets = std::size_t{1} << log2;
    detail::Table* t = alloc::create_flex<detail::Table>(
        buckets * sizeof(detail::Node*), log2);
    std::memset(static_cast<void*>(t->slots()), 0,
                buckets * sizeof(detail::Node*));
    reclaim::Gauge::on_alloc();
    return t;
  }

  void destroy_table(detail::Table* t) noexcept {
    if (t == nullptr) return;
    for (std::size_t b = 0; b < t->buckets(); ++b) {
      detail::Node* n = t->slots()[b];
      if (n == detail::moved_tag()) continue;
      while (n != nullptr) {
        detail::Node* next = n->next;
        alloc::destroy(n);
        reclaim::Gauge::on_free();
        n = next;
      }
    }
    alloc::destroy(t);
    reclaim::Gauge::on_free();
  }

  detail::Node* make_node(Tx& tx, std::uint64_t h, std::string_view key,
                          std::string_view value, detail::Node* next) {
    detail::Node* n = tx.template alloc_flex<detail::Node>(
        key.size() + value.size(), next, h,
        static_cast<std::uint32_t>(key.size()),
        static_cast<std::uint32_t>(value.size()));
    if (!key.empty()) std::memcpy(n->bytes(), key.data(), key.size());
    if (!value.empty())
      std::memcpy(n->bytes() + key.size(), value.data(), value.size());
    return n;
  }

  /// What a with_chain walk observed besides its result.
  struct Walk {
    std::size_t len = 0;    // nodes walked past by the committed attempts
    bool resizing = false;  // some committed window saw an old table
  };

  /// Private keyed ops behind put/get/del and run_batch, taking the key's
  /// hash from the caller so a batch hashes each key once.
  bool put_hashed(std::uint64_t h, std::string_view key,
                  std::string_view value) {
    util::trace_event(util::Ev::kKvOpStart,
                      static_cast<std::uint64_t>(OpCode::kPut));
    Shard& sh = shard_of(h);
    Walk walk;
    const bool inserted = with_chain(
        sh, h, key, walk,
        [&](Tx& tx, detail::Node** link, detail::Node* curr) {
          // Overwrite replaces the node (values are immutable in place,
          // so readers copying bytes never race an update) and frees the
          // old one precisely, revoking any reservation parked on it.
          rr::SiteScope site(tm::RevokeSite::kKvReplace);
          detail::Node* fresh =
              make_node(tx, h, key, value, tx.read(curr->next));
          tx.write(*link, fresh);
          reservation_.revoke(tx, curr);
          tx.dealloc(curr);
          return false;
        },
        [&](Tx& tx, detail::Node** link, detail::Node* curr) {
          detail::Node* fresh = make_node(tx, h, key, value, curr);
          tx.write(*link, fresh);
          return true;
        });
    if (!inserted)  // replace: the old node was revoked out from under
                    // any parked traversal — contention heat
      ContentionMap::note(static_cast<std::uint32_t>(shard_index(h)),
                          ContentionMap::cell_of(h, opt_.log2_shards),
                          ContentionMap::kRevokeWeight);
    if (inserted && walk.len >= static_cast<std::size_t>(opt_.grow_chain) &&
        try_grow(sh))
      walk.resizing = true;
    after_op(sh, OpCode::kPut, walk.resizing);
    return inserted;
  }

  bool get_hashed(std::uint64_t h, std::string_view key,
                  std::string& value_out) {
    util::trace_event(util::Ev::kKvOpStart,
                      static_cast<std::uint64_t>(OpCode::kGet));
    Shard& sh = shard_of(h);
    Walk walk;
    const bool found = with_chain(
        sh, h, key, walk,
        [&](Tx&, detail::Node**, detail::Node* curr) {
          const std::string_view v = curr->value();
          value_out.assign(v.data(), v.size());
          return true;
        },
        [](Tx&, detail::Node**, detail::Node*) { return false; });
    after_op(sh, OpCode::kGet, walk.resizing);
    return found;
  }

  bool del_hashed(std::uint64_t h, std::string_view key) {
    util::trace_event(util::Ev::kKvOpStart,
                      static_cast<std::uint64_t>(OpCode::kDel));
    Shard& sh = shard_of(h);
    Walk walk;
    const bool removed = with_chain(
        sh, h, key, walk,
        [&](Tx& tx, detail::Node** link, detail::Node* curr) {
          rr::SiteScope site(tm::RevokeSite::kKvDelete);
          tx.write(*link, tx.read(curr->next));
          reservation_.revoke(tx, curr);
          tx.dealloc(curr);
          return true;
        },
        [](Tx&, detail::Node**, detail::Node*) { return false; });
    if (removed)
      ContentionMap::note(static_cast<std::uint32_t>(shard_index(h)),
                          ContentionMap::cell_of(h, opt_.log2_shards),
                          ContentionMap::kRevokeWeight);
    after_op(sh, OpCode::kDel, walk.resizing);
    return removed;
  }

  /// The HOH traversal engine shared by get/put/del: Listing-5 windows
  /// over the key's chain in the current table. On a settled shard the
  /// op is exactly one transaction. Mid-resize, a window that finds the
  /// key's old bucket unmigrated returns kMigrate; the op then migrates
  /// that bucket and restarts its walk from the head. `on_found(tx, link,
  /// curr)` runs with *link == curr and curr matching the key;
  /// `on_not_found(tx, link, curr)` with curr the first node after the
  /// key's position (or null), so an insert links through `link`.
  template <class FFound, class FNotFound>
  bool with_chain(Shard& sh, std::uint64_t h, std::string_view key,
                  Walk& walk, FFound&& on_found, FNotFound&& on_not_found) {
    const ds::WindowPlan plan = fusion_gate_
                                    ? fusion_gate_->plan_op()
                                    : ds::WindowPlan{opt_.window, 0};
    ds::FusionState fusion(plan.fusion_budget);
    struct Feedback {
      ds::WindowTuner* gate;
      ~Feedback() {
        if (gate != nullptr) gate->observe();
      }
    } feedback{fusion_gate_.get()};
    bool handed_over = false;
    std::uint64_t parked_log2 = 0;
    rr::Ref parked_ref = nullptr;  // what the last committed park reserved
    const std::uint32_t heat_shard =
        static_cast<std::uint32_t>(shard_index(h));
    const std::uint32_t heat_cell =
        ContentionMap::cell_of(h, opt_.log2_shards);
    for (;;) {
      bool position_lost = false;
      rr::Ref lost = nullptr;
      std::size_t tx_seen = 0;
      bool saw_old = false;
      const Step step = TM::atomically([&](Tx& tx) -> Step {
        fusion.on_attempt_start();
        tx_seen = 0;
        reservation_.register_thread(tx);
        detail::Table* old = tx.read(sh.old);
        saw_old = old != nullptr;
        if (old != nullptr &&
            tx.read(old->slots()[detail::bucket_index(
                h, old->log2, opt_.log2_shards)]) != detail::moved_tag()) {
          // The key's bucket still lives in the old table (a grow is in
          // flight, possibly one that landed after an earlier window):
          // migrate it, then restart the walk.
          reservation_.release(tx);
          return Step::kMigrate;
        }
        detail::Table* cur = tx.read(sh.cur);
        const std::size_t b =
            detail::bucket_index(h, cur->log2, opt_.log2_shards);
        detail::Node** link = &cur->slots()[b];
        int used = 0;
        if (handed_over) {
          auto* parked = static_cast<detail::Node*>(
              const_cast<void*>(boundary_.resume(tx)));
          position_lost = parked == nullptr || cur->log2 != parked_log2;
          // Capture the lost ref here, before this attempt can park a
          // new node over parked_ref (attribution must name what was
          // actually revoked, not a later boundary).
          if (position_lost) lost = parked_ref;
          if (!position_lost) link = &parked->next;
        } else {
          used = initial_scatter();
        }
        detail::Node* curr = tx.read(*link);
        while (curr != nullptr &&
               detail::precedes(curr->hash, curr->key(), h, key)) {
          if (used >= plan.window) {
            if (!fusion.try_fuse()) break;
            used = 0;  // boundary elided: a fresh window, same tx
          }
          link = &curr->next;
          curr = tx.read(*link);
          ++used;
          ++tx_seen;
        }
        if (curr != nullptr && curr->hash == h && curr->key() == key) {
          const bool result = on_found(tx, link, curr);
          if (fail_hook_) fail_hook_();
          reservation_.release(tx);
          return result ? Step::kTrue : Step::kFalse;
        }
        if (curr == nullptr ||
            !detail::precedes(curr->hash, curr->key(), h, key)) {
          const bool result = on_not_found(tx, link, curr);
          if (fail_hook_) fail_hook_();
          reservation_.release(tx);
          return result ? Step::kTrue : Step::kFalse;
        }
        // Window exhausted short of the key's position: hand over.
        boundary_.park(tx, curr);
        parked_ref = curr;
        parked_log2 = cur->log2;
        return Step::kHandover;
      });
      fusion.on_commit();
      walk.len += tx_seen;
      walk.resizing = walk.resizing || saw_old;
      if (position_lost) {
        ds::WindowBoundary<RR>::note_position_lost(lost);
        ContentionMap::note(heat_shard, heat_cell,
                            ContentionMap::kPositionLostWeight);
      }
      if (step == Step::kTrue || step == Step::kFalse) {
        ContentionMap::note(heat_shard, heat_cell, ContentionMap::kOpWeight);
        return step == Step::kTrue;
      }
      if (step == Step::kMigrate) {
        migrate_for(sh, h);
        handed_over = false;
        walk.len = 0;
        continue;
      }
      handed_over = true;  // Step::kHandover
    }
  }

  static bool keyed(OpCode op) noexcept {
    return op == OpCode::kGet || op == OpCode::kPut || op == OpCode::kDel;
  }

  /// One batch op through the ordinary one-window-per-tx path.
  void run_single(BatchOp& op, std::uint64_t h) {
    switch (op.op) {
      case OpCode::kGet:
        op.hit = get_hashed(h, op.key, op.out);
        break;
      case OpCode::kPut:
        op.hit = put_hashed(h, op.key, op.value);
        break;
      case OpCode::kDel:
        op.hit = del_hashed(h, op.key);
        break;
      default:
        break;
    }
  }

  /// Batch-wide memory-level parallelism: one read-only transaction that
  /// reads each touched shard's current table once, prefetches every
  /// keyed op's bucket slot, then reads the slots and prefetches every
  /// chain head. The misses of a whole batch are then in flight together
  /// before the window transactions walk the chains one op at a time.
  /// Only hints: results come from those window transactions, and this
  /// transaction keeps the tables it indexes from being freed under it.
  void prefetch_batch(const BatchOp* ops, const std::uint64_t* hashes,
                      std::size_t n) {
    std::vector<detail::Table*> cur(shard_count_);
    TM::atomically([&](Tx& tx) {
      std::fill(cur.begin(), cur.end(), nullptr);
      const auto slot = [&](std::size_t k) {
        const std::size_t s = shard_index(hashes[k]);
        if (cur[s] == nullptr) cur[s] = tx.read(shards_[s].value.cur);
        return &cur[s]->slots()[detail::bucket_index(
            hashes[k], cur[s]->log2, opt_.log2_shards)];
      };
      for (std::size_t k = 0; k < n; ++k)
        if (keyed(ops[k].op)) __builtin_prefetch(slot(k));
      for (std::size_t k = 0; k < n; ++k)
        if (keyed(ops[k].op)) __builtin_prefetch(tx.read(*slot(k)));
    });
  }

  /// Commit a run of consecutive same-shard keyed ops [begin, end) as
  /// ONE fused transaction: each op past the first — and each mid-chain
  /// window overflow — consumes one unit of the tuner-granted fusion
  /// budget, exactly as if the per-op commit/begin boundary had been
  /// elided (ds::FusionState). Returns the index after the last op that
  /// executed; the caller re-dispatches the remainder (budget drained,
  /// window overflow, or an unmigrated member bucket). A member whose
  /// bucket still lives in the old table stops the group: the ops from
  /// it on get their buckets migrated here, then go back to run_batch.
  /// Aborted attempts rerun the whole group from `begin`, so the local
  /// result slots are re-written per attempt and consumed only up to
  /// `done`.
  std::size_t run_fused_group(Shard& sh, std::size_t shard, BatchOp* ops,
                              const std::uint64_t* hashes, std::size_t begin,
                              std::size_t end, BatchCounters& bc) {
    const ds::WindowPlan plan = fusion_gate_->plan_op();
    ds::FusionState fusion(plan.fusion_budget);
    struct Feedback {
      ds::WindowTuner* gate;
      ~Feedback() {
        if (gate != nullptr) gate->observe();
      }
    } feedback{fusion_gate_.get()};
    struct OpResult {
      bool hit = false;
      bool inserted = false;
      std::size_t walked = 0;
      std::string out;
    };
    std::vector<OpResult> res(end - begin);
    std::size_t done = begin;
    bool saw_old = false;
    bool unmigrated = false;
    TM::atomically([&](Tx& tx) {
      fusion.on_attempt_start();
      done = begin;
      unmigrated = false;
      reservation_.register_thread(tx);
      detail::Table* old = tx.read(sh.old);
      detail::Table* cur = tx.read(sh.cur);
      saw_old = old != nullptr;
      int used = initial_scatter();
      for (std::size_t k = begin; k < end; ++k) {
        const std::uint64_t h = hashes[k];
        if (old != nullptr &&
            tx.read(old->slots()[detail::bucket_index(
                h, old->log2, opt_.log2_shards)]) != detail::moved_tag()) {
          unmigrated = true;
          break;
        }
        if (k > begin) {
          if (!fusion.try_fuse()) break;
          used = 0;  // the elided per-op boundary: a fresh window, same tx
        }
        OpResult& r = res[k - begin];
        r = OpResult{};
        BatchOp& o = ops[k];
        detail::Node** link = &cur->slots()[detail::bucket_index(
            h, cur->log2, opt_.log2_shards)];
        detail::Node* curr = tx.read(*link);
        bool overflow = false;
        while (curr != nullptr &&
               detail::precedes(curr->hash, curr->key(), h, o.key)) {
          if (used >= plan.window) {
            if (!fusion.try_fuse()) {
              overflow = true;
              break;
            }
            used = 0;
          }
          link = &curr->next;
          curr = tx.read(*link);
          ++used;
          ++r.walked;
        }
        if (overflow) break;
        const bool found =
            curr != nullptr && curr->hash == h && curr->key() == o.key;
        switch (o.op) {
          case OpCode::kGet:
            if (found) {
              const std::string_view v = curr->value();
              r.out.assign(v.data(), v.size());
              r.hit = true;
            }
            break;
          case OpCode::kPut:
            if (found) {
              // Same replace discipline as put(): new node in, old node
              // revoked and freed in this very transaction.
              rr::SiteScope site(tm::RevokeSite::kKvReplace);
              detail::Node* fresh =
                  make_node(tx, h, o.key, o.value, tx.read(curr->next));
              tx.write(*link, fresh);
              reservation_.revoke(tx, curr);
              tx.dealloc(curr);
            } else {
              detail::Node* fresh = make_node(tx, h, o.key, o.value, curr);
              tx.write(*link, fresh);
              r.hit = true;
              r.inserted = true;
            }
            break;
          case OpCode::kDel:
            if (found) {
              rr::SiteScope site(tm::RevokeSite::kKvDelete);
              tx.write(*link, tx.read(curr->next));
              reservation_.revoke(tx, curr);
              tx.dealloc(curr);
              r.hit = true;
            }
            break;
          default:
            break;
        }
        done = k + 1;
      }
      reservation_.release(tx);
    });
    fusion.on_commit();
    if (unmigrated) {
      // A grow is in flight: move every remaining member's old bucket
      // now, so the re-dispatched ops fuse again on a migrated shard.
      for (std::size_t k = done; k < end; ++k) migrate_for(sh, hashes[k]);
    } else if (done == begin) {
      // Budget drained on the head op's own chain: the normal path
      // handles it.
      run_single(ops[begin], hashes[begin]);
      return begin + 1;
    }
    if (done > begin) {
      bc.batch_txs += 1;
      if (done - begin >= 2) bc.fused_ops += done - begin;
    }
    bool resizing = saw_old;
    bool want_grow = false;
    for (std::size_t k = begin; k < done; ++k) {
      OpResult& r = res[k - begin];
      BatchOp& o = ops[k];
      o.hit = r.hit;
      o.out = std::move(r.out);
      util::trace_event(util::Ev::kKvOpStart,
                        static_cast<std::uint64_t>(o.op));
      const std::uint32_t cell =
          ContentionMap::cell_of(hashes[k], opt_.log2_shards);
      ContentionMap::note(static_cast<std::uint32_t>(shard), cell,
                          ContentionMap::kOpWeight);
      const bool revoked = (o.op == OpCode::kPut && !r.hit) ||
                           (o.op == OpCode::kDel && r.hit);
      if (revoked)
        ContentionMap::note(static_cast<std::uint32_t>(shard), cell,
                            ContentionMap::kRevokeWeight);
      if (r.inserted &&
          r.walked >= static_cast<std::size_t>(opt_.grow_chain))
        want_grow = true;
      util::trace_event(util::Ev::kKvOpDone,
                        static_cast<std::uint64_t>(o.op));
    }
    if (want_grow && try_grow(sh)) resizing = true;
    // One helper window for the whole group, when it saw a resize.
    after_op(sh, OpCode::kBatch, resizing);
    return done;
  }

  /// Drive migration of the old bucket holding `h` to completion (no-op
  /// when the shard is settled or the bucket already migrated).
  void migrate_for(Shard& sh, std::uint64_t h) {
    MigrationCursor cursor;
    while (!migrate_window(sh, Pick::kByHash, h, cursor)) {
    }
  }

  /// One migration window: pop up to `window` nodes from the front of
  /// the selected old-table bucket and sorted-insert them into the
  /// current table, resuming from the reservation-parked anchor. The
  /// window that empties the bucket stamps the moved tag; the one that
  /// empties the last bucket frees the old table precisely. Returns true
  /// when the selected bucket needs no further work.
  bool migrate_window(Shard& sh, Pick pick, std::uint64_t sel,
                      MigrationCursor& cursor) {
    bool bucket_done = false;
    bool table_freed = false;
    std::size_t done_bucket = 0;
    std::size_t freed_buckets = 0;
    const bool finished = TM::atomically([&](Tx& tx) -> bool {
      // Any revocation issued while relocating a chain is a migration
      // casualty for attribution purposes.
      rr::SiteScope site(tm::RevokeSite::kMigration);
      bucket_done = false;
      table_freed = false;
      reservation_.register_thread(tx);
      detail::Table* old = tx.read(sh.old);
      if (old == nullptr) {
        reservation_.release(tx);
        return true;
      }
      const std::size_t b =
          pick == Pick::kByHash
              ? detail::bucket_index(sel, old->log2, opt_.log2_shards)
              : static_cast<std::size_t>(sel) & (old->buckets() - 1);
      detail::Node*& oslot = old->slots()[b];
      detail::Node* rest = tx.read(oslot);
      if (rest == detail::moved_tag()) {
        reservation_.release(tx);
        return true;
      }
      detail::Table* cur = tx.read(sh.cur);
      detail::Node* anchor = nullptr;
      if (cursor.parked && cur->log2 == cursor.parked_log2)
        anchor = static_cast<detail::Node*>(const_cast<void*>(
            detail::resume_anchor(reservation_, tx, cursor.raw_cache)));
      int moved = 0;
      while (rest != nullptr && moved < opt_.window) {
        detail::Node* node = rest;
        rest = tx.read(node->next);
        const std::size_t nb =
            detail::bucket_index(node->hash, cur->log2, opt_.log2_shards);
        detail::Node** link;
        if (anchor != nullptr &&
            detail::bucket_index(anchor->hash, cur->log2,
                                 opt_.log2_shards) == nb &&
            !detail::precedes(node->hash, node->key(), anchor->hash,
                              anchor->key())) {
          link = &anchor->next;  // continue past the previous insertion
        } else {
          link = &cur->slots()[nb];
        }
        detail::Node* pos = tx.read(*link);
        while (pos != nullptr && detail::precedes(pos->hash, pos->key(),
                                                  node->hash, node->key())) {
          link = &pos->next;
          pos = tx.read(*link);
        }
        tx.write(node->next, pos);
        tx.write(*link, node);
        anchor = node;
        ++moved;
      }
      if (rest == nullptr) {
        tx.write(oslot, detail::moved_tag());
        const std::uint64_t left = tx.read(sh.old_left) - 1;
        tx.write(sh.old_left, left);
        bucket_done = true;
        done_bucket = b;
        if (left == 0) {
          // Last bucket: unpublish and free the old table in this same
          // transaction — the quiescence fence at commit makes the free
          // precise yet unobservable by in-flight readers.
          tx.write(sh.old, static_cast<detail::Table*>(nullptr));
          // Tables are never reservation targets (only nodes are parked
          // at window boundaries), so unpublishing sh.old is the whole
          // unlink protocol here — there is nothing to revoke.
          // hohtm-analyze: allow(unlink-without-revoke)
          tx.dealloc(old);
          table_freed = true;
          freed_buckets = old->buckets();
        }
        reservation_.release(tx);
        return true;
      }
      tx.write(oslot, rest);
      detail::park_anchor(reservation_, tx, anchor, cursor.raw_cache);
      cursor.parked_log2 = cur->log2;
      return false;
    });
    cursor.parked = !finished;
    if (finished) cursor.raw_cache = nullptr;
    if (bucket_done) {
      migrated_buckets_.fetch_add(1, std::memory_order_relaxed);
      util::trace_event(util::Ev::kKvMigrate, done_bucket);
    }
    if (table_freed) {
      tables_retired_.fetch_add(1, std::memory_order_relaxed);
      util::trace_event(util::Ev::kKvTableFree, freed_buckets);
    }
    return finished;
  }

  /// Install a double-size table if the shard is settled and under the
  /// cap. The old table stays reachable; migration is incremental.
  /// Returns true when the shard is mid-resize afterwards (this call's
  /// swap, or one that raced it).
  bool try_grow(Shard& sh) {
    bool swapped = false;
    std::uint64_t new_log2 = 0;
    const bool resizing = TM::atomically([&](Tx& tx) -> bool {
      swapped = false;
      if (tx.read(sh.old) != nullptr) return true;  // already resizing
      detail::Table* cur = tx.read(sh.cur);
      if (cur->log2 >= opt_.max_log2_buckets) return false;
      const std::size_t buckets = std::size_t{2} << cur->log2;
      detail::Table* fresh = tx.template alloc_flex<detail::Table>(
          buckets * sizeof(detail::Node*), cur->log2 + 1);
      // Private until this transaction commits (and freed by rollback if
      // it aborts), so plain stores initialize the slots.
      std::memset(static_cast<void*>(fresh->slots()), 0,
                  buckets * sizeof(detail::Node*));
      tx.write(sh.old, cur);
      tx.write(sh.cur, fresh);
      tx.write(sh.old_left, static_cast<std::uint64_t>(cur->buckets()));
      swapped = true;
      new_log2 = cur->log2 + 1;
      return true;
    });
    if (swapped) {
      tables_swapped_.fetch_add(1, std::memory_order_relaxed);
      util::trace_event(util::Ev::kKvTableSwap, new_log2);
    }
    return resizing;
  }

  /// Post-op bookkeeping, then trace the op completion. An op that saw
  /// its shard mid-resize helps migrate one extra bucket (round-robin
  /// cursor), so resizes finish even when the workload never touches
  /// some buckets: every op on that shard helps until the old table is
  /// freed. An op on a settled shard skips the helper transaction and
  /// the cursor's cache line.
  void after_op(Shard& sh, OpCode op, bool resizing) {
    if (resizing && opt_.auto_migrate) {
      const std::uint64_t idx =
          sh.hint.fetch_add(1, std::memory_order_relaxed);
      MigrationCursor cursor;
      migrate_window(sh, Pick::kByIndex, idx, cursor);
    }
    util::trace_event(util::Ev::kKvOpDone, static_cast<std::uint64_t>(op));
  }

  /// Outcome of one scan window transaction.
  enum class ScanStep : std::uint8_t {
    kHandover,   // window exhausted; cursor node parked in the reservation
    kMigrate,    // an unmigrated old bucket blocks the walk; go migrate it
    kLimit,      // the visit limit was reached
    kShardDone,  // walked past the shard's last bucket
  };

  /// Smallest hash routed to bucket `b` of a `log2`-bucket table in
  /// `shard` — the representative used to locate that bucket's parent in
  /// the old table (and, with b == 0, a shard's first position).
  std::uint64_t rep_hash(std::size_t shard, std::size_t b,
                         std::uint64_t log2) const noexcept {
    const std::size_t ls = opt_.log2_shards;
    std::uint64_t h = 0;
    if (ls > 0) h |= static_cast<std::uint64_t>(shard) << (64 - ls);
    if (log2 > 0) h |= static_cast<std::uint64_t>(b) << (64 - ls - log2);
    return h;
  }

  /// Multi-window range scan (docs/KV.md, "Range scans"). Because the
  /// bucket index is the hash bits immediately below the shard bits,
  /// shard-major -> bucket-major -> chain order is one globally
  /// ascending (hash, key) order: the sorted-shard variant of ROADMAP
  /// item 2, with no extra index to maintain. Each window transaction
  /// emits at most `Options::window` entries (nodes skipped while
  /// re-walking toward the cursor are grow-policy-bounded and free);
  /// at the boundary the last emitted node is parked in the reservation
  /// (detail::park_scan_cursor)
  /// and the next window resumes mid-chain from it. A resume is honored
  /// only if the reservation still holds the very node this scan parked,
  /// the table generation is unchanged, and the node has not moved past
  /// the cursor — anything else (revoked cursor, a visitor op that
  /// reused the thread's reservation, a grow) reseeks from the
  /// remembered (hash, key) cursor position, never from scratch.
  template <class F>
  std::size_t scan_impl(bool from_start, std::string_view start_key,
                        std::size_t limit, F&& fn) {
    util::trace_event(util::Ev::kKvOpStart,
                      static_cast<std::uint64_t>(OpCode::kScan));
    scans_.fetch_add(1, std::memory_order_relaxed);
    if (limit == 0) {
      util::trace_event(util::Ev::kKvOpDone,
                        static_cast<std::uint64_t>(OpCode::kScan));
      return 0;
    }
    // The cursor: the last consumed (hash, key) position, exclusive once
    // anything was emitted. It survives revocation — only the *parked
    // node* is protected by the reservation; the position is plain data.
    std::uint64_t chash = from_start ? 0 : detail::hash_bytes(start_key);
    std::string ckey(from_start ? std::string_view{} : start_key);
    bool cinclusive = true;
    std::size_t shard = from_start ? 0 : shard_index(chash);
    const auto past_cursor = [&](std::uint64_t h, std::string_view k) {
      return cinclusive ? !detail::precedes(h, k, chash, ckey)
                        : detail::precedes(chash, ckey, h, k);
    };
    std::size_t visited = 0;
    // One window's entries, copied out of the transaction for delivery.
    // The thread's buffer (one per visitor type F) keeps its strings'
    // capacity across windows and scans (assign, not construct), so
    // steady-state delivery allocates nothing; a visitor that re-enters a
    // scan on this thread while this one delivers gets a call-local
    // buffer instead.
    struct EntryBuffer {
      std::vector<std::pair<std::string, std::string>> entries;
      std::size_t size = 0;
      bool busy = false;
      void push(std::string_view k, std::string_view v) {
        if (size == entries.size()) entries.emplace_back();
        entries[size].first.assign(k);
        entries[size].second.assign(v);
        ++size;
      }
    };
    thread_local EntryBuffer thread_buffer;
    EntryBuffer call_buffer;
    EntryBuffer& batch = thread_buffer.busy ? call_buffer : thread_buffer;
    batch.busy = true;
    struct Unclaim {
      EntryBuffer& b;
      ~Unclaim() { b.busy = false; }
    } unclaim{batch};
    bool handed_over = false;
    detail::Node* parked_raw = nullptr;  // what this scan's last park reserved
    std::uint64_t parked_log2 = 0;
    rr::Ref mutant_cache = nullptr;  // kDropScanCursorHandover mutant only
    while (shard < shard_count_) {
      Shard& sh = shards_[shard].value;
      bool position_lost = false;
      std::uint64_t need_hash = 0;
      detail::Node* new_parked = nullptr;
      std::uint64_t new_parked_log2 = 0;
      const ScanStep step = TM::atomically([&](Tx& tx) -> ScanStep {
        batch.size = 0;
        position_lost = false;
        reservation_.register_thread(tx);
        detail::Table* old = tx.read(sh.old);
        detail::Table* cur = tx.read(sh.cur);
        std::size_t b = 0;
        detail::Node** link = nullptr;
        bool resumed = false;
        if (handed_over) {
          auto* parked = static_cast<detail::Node*>(const_cast<void*>(
              detail::resume_scan_cursor(reservation_, tx, mutant_cache)));
          // Honor the resume only if the reservation still holds exactly
          // the node this scan parked (a visitor op on this thread may
          // have reused the slot for its own boundary or a migration
          // anchor), the table generation matches, and the node is still
          // at-or-before the cursor (a node at the same address but past
          // the cursor would skip entries).
          if (parked != nullptr && parked == parked_raw &&
              cur->log2 == parked_log2 && shard_index(parked->hash) == shard &&
              !past_cursor(parked->hash, parked->key())) {
            b = detail::bucket_index(parked->hash, cur->log2,
                                     opt_.log2_shards);
            link = &parked->next;
            resumed = true;
          } else {
            position_lost = true;
          }
        }
        if (!resumed) {
          // Reseek from the cursor position's bucket, after making sure
          // its old-table parent bucket is migrated (the chain walk must
          // see every entry of the bucket in the current table).
          if (old != nullptr &&
              tx.read(old->slots()[detail::bucket_index(
                  chash, old->log2, opt_.log2_shards)]) !=
                  detail::moved_tag()) {
            reservation_.release(tx);
            need_hash = chash;
            return ScanStep::kMigrate;
          }
          b = detail::bucket_index(chash, cur->log2, opt_.log2_shards);
          link = &cur->slots()[b];
        }
        int used = 0;
        for (;;) {
          detail::Node* curr = tx.read(*link);
          if (curr == nullptr) {
            if (++b >= cur->buckets()) {
              reservation_.release(tx);
              return ScanStep::kShardDone;
            }
            if (old != nullptr) {
              const std::uint64_t rep = rep_hash(shard, b, cur->log2);
              if (tx.read(old->slots()[detail::bucket_index(
                      rep, old->log2, opt_.log2_shards)]) !=
                  detail::moved_tag()) {
                reservation_.release(tx);
                need_hash = rep;
                return ScanStep::kMigrate;
              }
            }
            link = &cur->slots()[b];
            continue;
          }
          if (past_cursor(curr->hash, curr->key())) {
            if (visited + batch.size >= limit) {
              reservation_.release(tx);
              return ScanStep::kLimit;
            }
            batch.push(curr->key(), curr->value());
            // Only *emitted* entries consume window budget. Nodes
            // skipped while re-walking toward the cursor (a reseek's
            // chain prefix, bounded by the grow policy like every keyed
            // op's traversal) must not: a window that spent its whole
            // budget on skips would park without advancing the
            // remembered position — with a nil-resuming reservation
            // (RrNull, or sustained revocation) that is a livelock.
            if (++used >= opt_.window) {
              // Window boundary: park the last emitted node as cursor.
              detail::park_scan_cursor(reservation_, tx, curr,
                                       mutant_cache);
              new_parked = curr;
              new_parked_log2 = cur->log2;
              return ScanStep::kHandover;
            }
          }
          link = &curr->next;
        }
      });
      scan_windows_.fetch_add(1, std::memory_order_relaxed);
      util::trace_event(util::Ev::kKvScanWindow, batch.size);
      if (position_lost) {
        if constexpr (RR::kReal) {
          // With a real reservation a lost cursor is contention (someone
          // revoked it, or this thread's own visitor reused the slot);
          // with RrNull nil is the steady state, not an event.
          scan_resumes_.fetch_add(1, std::memory_order_relaxed);
          util::trace_event(util::Ev::kKvScanResume);
          ds::WindowBoundary<RR>::note_position_lost(parked_raw);
          ContentionMap::note(static_cast<std::uint32_t>(shard),
                              ContentionMap::cell_of(chash, opt_.log2_shards),
                              ContentionMap::kPositionLostWeight);
        }
        handed_over = false;
        parked_raw = nullptr;
      }
      // Deliver outside the transaction, then advance the cursor to the
      // last emitted position; the visitor may re-enter the store (its
      // ops reuse this thread's reservation — the resume check above
      // keeps that safe).
      for (std::size_t i = 0; i < batch.size; ++i) {
        fn(batch.entries[i].first, batch.entries[i].second);
        ++visited;
      }
      if (batch.size > 0) {
        ckey = batch.entries[batch.size - 1].first;
        chash = detail::hash_bytes(ckey);
        cinclusive = false;
      }
      switch (step) {
        case ScanStep::kHandover:
          handed_over = true;
          parked_raw = new_parked;
          parked_log2 = new_parked_log2;
          break;
        case ScanStep::kMigrate: {
          handed_over = false;
          MigrationCursor cursor;
          while (!migrate_window(sh, Pick::kByHash, need_hash, cursor)) {
          }
          break;
        }
        case ScanStep::kLimit:
          util::trace_event(util::Ev::kKvOpDone,
                            static_cast<std::uint64_t>(OpCode::kScan));
          return visited;
        case ScanStep::kShardDone:
          handed_over = false;
          ++shard;
          if (shard < shard_count_) {
            chash = rep_hash(shard, 0, 0);
            ckey.clear();
            cinclusive = true;
          }
          break;
      }
    }
    util::trace_event(util::Ev::kKvOpDone,
                      static_cast<std::uint64_t>(OpCode::kScan));
    return visited;
  }

  std::size_t count_table(Tx& tx, detail::Table* t) {
    if (t == nullptr) return 0;
    std::size_t n = 0;
    for (std::size_t b = 0; b < t->buckets(); ++b) {
      detail::Node* head = tx.read(t->slots()[b]);
      if (head == detail::moved_tag()) continue;
      for (; head != nullptr; head = tx.read(head->next)) ++n;
    }
    return n;
  }

  bool check_table(Tx& tx, detail::Table* t, std::size_t shard, bool is_old,
                   std::set<std::pair<std::uint64_t, std::string>>& seen) {
    for (std::size_t b = 0; b < t->buckets(); ++b) {
      detail::Node* n = tx.read(t->slots()[b]);
      if (n == detail::moved_tag()) {
        if (!is_old) return false;  // the tag belongs to old tables only
        continue;
      }
      const detail::Node* prev = nullptr;
      for (; n != nullptr; n = tx.read(n->next)) {
        if (shard_index(n->hash) != shard) return false;
        if (detail::bucket_index(n->hash, t->log2, opt_.log2_shards) != b)
          return false;
        if (prev != nullptr &&
            !detail::precedes(prev->hash, prev->key(), n->hash, n->key()))
          return false;
        if (!seen.emplace(n->hash, std::string(n->key())).second)
          return false;  // key present in two chains
        prev = n;
      }
    }
    return true;
  }

  int initial_scatter() {
    if (opt_.window <= 1 || opt_.window == kUnbounded) return 0;
    thread_local util::Xoshiro256 rng(
        util::ThreadRegistry::generation() * 0x9E3779B97F4A7C15ULL + 17);
    return static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(opt_.window)));
  }

  Options opt_;
  std::size_t shard_count_;
  std::unique_ptr<util::CachePadded<Shard>[]> shards_;
  RR reservation_;
  ds::WindowBoundary<RR> boundary_{reservation_};
  std::unique_ptr<ds::WindowTuner> fusion_gate_;
  std::function<void()> fail_hook_;
  std::atomic<std::uint64_t> migrated_buckets_{0};
  std::atomic<std::uint64_t> tables_swapped_{0};
  std::atomic<std::uint64_t> tables_retired_{0};
  std::atomic<std::uint64_t> scans_{0};
  std::atomic<std::uint64_t> scan_windows_{0};
  std::atomic<std::uint64_t> scan_resumes_{0};
};

}  // namespace hohtm::kv
