#include "reclaim/epoch.hpp"

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace hohtm::reclaim {
namespace {

// Process-wide retire/free counters across every epoch domain; the
// metrics snapshot derives the unreclaimed backlog as retired - freed.
int retired_metric() {
  static const int id = util::MetricsRegistry::counter("epoch.retired");
  return id;
}
int freed_metric() {
  static const int id = util::MetricsRegistry::counter("epoch.freed");
  return id;
}

}  // namespace

EpochDomain::~EpochDomain() {
  for (auto& bucket : buckets_.live()) {
    for (auto& generation : bucket->generation) {
      for (const Retired& r : generation) r.deleter(r.ptr);
      util::MetricsRegistry::add(freed_metric(), generation.size());
      generation.clear();
    }
  }
}

void EpochDomain::retire(void* ptr, void (*deleter)(void*) noexcept) {
  util::trace_event(util::Ev::kRetire, reinterpret_cast<std::uintptr_t>(ptr));
  util::MetricsRegistry::add(retired_metric());
  Bucket& mine = buckets_.mine();
  const std::uint64_t e = global_epoch_->load(std::memory_order_acquire);
  mine.generation[e % kGenerations].push_back(Retired{ptr, deleter});
  if (++mine.since_advance >= advance_threshold_) {
    mine.since_advance = 0;
    try_advance();
  }
}

bool EpochDomain::try_advance() {
  const std::uint64_t e = global_epoch_->load(std::memory_order_seq_cst);
  for (const auto& cell : cells_.live()) {
    const std::uint64_t local =
        cell->local_epoch.load(std::memory_order_seq_cst);
    if (local != kIdle && local < e) return false;  // a reader lags behind
  }
  // All pinned threads have seen epoch e; retired nodes from generation
  // e-2 (i.e. slot (e+1) % 3) can no longer be reached by anyone.
  std::uint64_t expected = e;
  if (!global_epoch_->compare_exchange_strong(expected, e + 1,
                                              std::memory_order_seq_cst))
    return false;  // someone else advanced; their free pass covers us
  util::trace_event(util::Ev::kEpochAdvance, e + 1);
  Bucket& mine = buckets_.mine();
  auto& reclaimable = mine.generation[(e + 1) % kGenerations];
  for (const Retired& r : reclaimable) r.deleter(r.ptr);
  util::MetricsRegistry::add(freed_metric(), reclaimable.size());
  reclaimable.clear();
  return true;
}

std::size_t EpochDomain::total_backlog() const noexcept {
  std::size_t total = 0;
  for (const auto& bucket : buckets_.live())
    for (const auto& generation : bucket->generation)
      total += generation.size();
  return total;
}

}  // namespace hohtm::reclaim
