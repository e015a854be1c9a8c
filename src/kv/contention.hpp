#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "util/per_thread.hpp"

namespace hohtm::kv {

/// Always-on contention heatmap for the sharded kv store.
///
/// Every store operation notes its (shard, cell) with weight 1; contention
/// events add extra weight (a lost reservation position is worth more than
/// a plain revoke, which is worth more than an uncontended op — see the
/// k* weights). Cells are *fixed-granularity hash prefixes*, not physical
/// bucket indices: a bucket index changes meaning on every incremental
/// resize, which would smear a hot key across cells mid-run, while the top
/// `kCellBits` post-shard hash bits name the same key range forever.
///
/// Per-thread state is a cache-line-padded space-saving sketch of
/// `kEntries` (cell, count) pairs — owner-only relaxed writes on the hot
/// path, so noting costs a short scan of the thread's own line(s) and no
/// RMW. `top()` merges every thread's sketch; like all space-saving
/// sketches the counts are upper bounds and concurrent snapshots are
/// approximate, which is fine for a heatmap.
class ContentionMap {
 public:
  static constexpr std::uint32_t kCellBits = 12;  // 4096 cells per shard
  static constexpr std::uint64_t kOpWeight = 1;
  static constexpr std::uint64_t kRevokeWeight = 4;
  static constexpr std::uint64_t kPositionLostWeight = 8;

  /// Heat cell of hash `h` after `log2_shards` bits routed the shard.
  static std::uint32_t cell_of(std::uint64_t h,
                               std::size_t log2_shards) noexcept {
    return static_cast<std::uint32_t>((h << log2_shards) >>
                                      (64 - kCellBits));
  }

  static void note(std::uint32_t shard, std::uint32_t cell,
                   std::uint64_t weight) noexcept;

  struct Hot {
    std::uint32_t shard;
    std::uint32_t cell;
    std::uint64_t weight;
  };

  /// Top-k hottest cells merged across every thread, weight-descending.
  static std::vector<Hot> top(std::size_t k);

  /// One JSON array of {"shard","cell","weight"} objects (top 8).
  static void write_json(std::FILE* out);

  /// Quiescent-only: forget everything.
  static void reset() noexcept;

 private:
  static constexpr std::size_t kEntries = 16;  // per-thread sketch width
  struct Sketch {
    std::atomic<std::uint64_t> key[kEntries];    // (shard << 32) | cell
    std::atomic<std::uint64_t> count[kEntries];  // 0 = slot empty
  };
  static constinit inline util::PerThread<Sketch> sketches_;
  // One 256-byte sketch (four lines) per slot, as a raw padded array had.
  static_assert(sizeof(sketches_) == util::kMaxThreads * 256);
};

}  // namespace hohtm::kv
