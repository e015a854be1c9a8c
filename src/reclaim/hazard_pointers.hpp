#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/cacheline.hpp"
#include "util/per_thread.hpp"
#include "util/thread_registry.hpp"

namespace hohtm::reclaim {

/// Hazard pointers (Michael, TPDS 2004) — the deferred-reclamation
/// baseline the paper benchmarks against (LFHP and TMHP curves).
///
/// Threads publish the nodes they may dereference; `retire` queues a node
/// and frees it only once a scan proves no thread has it published. The
/// paper found throughput best when threads "only reclaim after 64
/// deletions", so that is the default scan threshold. The retire backlog
/// is what the precision comparison (mem_pressure example, Gauge-based
/// tests) measures against revocable reservations' immediate frees.
class HazardDomain {
 public:
  static constexpr std::size_t kSlotsPerThread = 3;

  using PrescanHook = void (*)() noexcept;

  /// `prescan` runs once at the start of every scan, before any node is
  /// freed. TM-based clients pass their backend's quiesce_before_free so
  /// that doomed transactions whose read sets still reference retired
  /// nodes drain before the memory is returned (hazard pointers alone
  /// only cover explicitly protected nodes, not STM read sets).
  explicit HazardDomain(std::size_t scan_threshold = 64,
                        PrescanHook prescan = nullptr)
      : scan_threshold_(scan_threshold), prescan_(prescan) {}

  HazardDomain(const HazardDomain&) = delete;
  HazardDomain& operator=(const HazardDomain&) = delete;

  /// Frees every outstanding retired node. Callers must ensure no thread
  /// is still using the domain.
  ~HazardDomain();

  /// Publish `ptr` in the calling thread's hazard slot `index`.
  /// seq_cst store: must be ordered before the re-validation load that
  /// follows in the Michael protect-validate pattern.
  void protect(std::size_t index, const void* ptr) noexcept {
    slot(index).store(ptr, std::memory_order_seq_cst);
  }

  void clear(std::size_t index) noexcept {
    slot(index).store(nullptr, std::memory_order_release);
  }

  void clear_all() noexcept {
    for (std::size_t i = 0; i < kSlotsPerThread; ++i) clear(i);
  }

  /// Queue `ptr` for deferred destruction via `deleter`; triggers a scan
  /// when the calling thread's backlog reaches the threshold.
  void retire(void* ptr, void (*deleter)(void*) noexcept);

  /// Free every retired node not currently protected. Exposed for tests
  /// and shutdown paths.
  void scan();

  /// Current retire backlog of the calling thread (diagnostics).
  std::size_t my_backlog() const noexcept {
    return lists_.mine().items.size();
  }

  /// Total backlog across threads; approximate under concurrency.
  std::size_t total_backlog() const noexcept;

 private:
  struct Retired {
    void* ptr;
    void (*deleter)(void*) noexcept;
  };
  struct RetireList {
    std::vector<Retired> items;
  };

  std::atomic<const void*>& slot(std::size_t index) noexcept {
    return slots_[util::ThreadRegistry::slot() * kSlotsPerThread + index]
        .value;
  }

  const std::size_t scan_threshold_;
  const PrescanHook prescan_ = nullptr;
  util::CachePadded<std::atomic<const void*>>
      slots_[util::kMaxThreads * kSlotsPerThread];
  util::PerThread<RetireList> lists_;
};

}  // namespace hohtm::reclaim
