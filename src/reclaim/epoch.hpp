#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/per_thread.hpp"

namespace hohtm::reclaim {

/// Epoch-based reclamation (Fraser-style, three-generation).
///
/// The paper's "LFLeak approximates the best-case performance of an
/// epoch-based allocator"; this is the real thing, used by the
/// mem_pressure example and the reclamation-comparison tests to show the
/// unbounded backlog epochs can accumulate when a reader stalls — the
/// exact pathology revocable reservations eliminate.
///
/// Usage: wrap each read-side region in a Pin (RAII); retire removed
/// nodes; the domain frees a generation once every pinned thread has
/// observed a newer epoch.
class EpochDomain {
 public:
  explicit EpochDomain(std::size_t advance_threshold = 64)
      : advance_threshold_(advance_threshold) {}

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  ~EpochDomain();

  class Pin {
   public:
    explicit Pin(EpochDomain& domain) noexcept : domain_(domain) {
      domain_.enter();
    }
    ~Pin() { domain_.exit(); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    EpochDomain& domain_;
  };

  /// Queue a node; it is freed two epoch advances later.
  void retire(void* ptr, void (*deleter)(void*) noexcept);

  /// Attempt to advance the global epoch and free the retired generation;
  /// succeeds only if no pinned thread lags behind.
  bool try_advance();

  std::size_t total_backlog() const noexcept;
  std::uint64_t epoch() const noexcept {
    return global_epoch_->load(std::memory_order_acquire);
  }

 private:
  static constexpr std::uint64_t kIdle = ~0ULL;
  static constexpr std::size_t kGenerations = 3;

  struct Retired {
    void* ptr;
    void (*deleter)(void*) noexcept;
  };
  struct Cell {
    std::atomic<std::uint64_t> local_epoch{kIdle};  // kIdle when not pinned
  };
  struct Bucket {
    std::vector<Retired> generation[kGenerations];
    std::size_t since_advance = 0;
  };

  void enter() noexcept {
    auto& cell = cells_.mine();
    cell.local_epoch.store(global_epoch_->load(std::memory_order_seq_cst),
                           std::memory_order_seq_cst);
  }

  void exit() noexcept {
    cells_.mine().local_epoch.store(kIdle, std::memory_order_release);
  }

  const std::size_t advance_threshold_;
  util::CachePadded<std::atomic<std::uint64_t>> global_epoch_{0};
  util::PerThread<Cell> cells_;
  util::PerThread<Bucket> buckets_;
};

}  // namespace hohtm::reclaim
