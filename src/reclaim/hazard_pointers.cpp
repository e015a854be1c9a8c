#include "reclaim/hazard_pointers.hpp"

#include <algorithm>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace hohtm::reclaim {
namespace {

// Process-wide retire/free counters across every hazard domain; the
// metrics snapshot derives the unreclaimed backlog as retired - freed.
int retired_metric() {
  static const int id = util::MetricsRegistry::counter("hazard.retired");
  return id;
}
int freed_metric() {
  static const int id = util::MetricsRegistry::counter("hazard.freed");
  return id;
}

}  // namespace

HazardDomain::~HazardDomain() {
  for (auto& list : lists_.live()) {
    for (const Retired& r : list->items) r.deleter(r.ptr);
    util::MetricsRegistry::add(freed_metric(), list->items.size());
    list->items.clear();
  }
}

void HazardDomain::retire(void* ptr, void (*deleter)(void*) noexcept) {
  util::trace_event(util::Ev::kRetire, reinterpret_cast<std::uintptr_t>(ptr));
  util::MetricsRegistry::add(retired_metric());
  RetireList& mine = lists_.mine();
  mine.items.push_back(Retired{ptr, deleter});
  if (mine.items.size() >= scan_threshold_) scan();
}

void HazardDomain::scan() {
  if (prescan_ != nullptr) prescan_();
  // Stage 1: snapshot every published hazard.
  std::vector<const void*> hazards;
  const std::size_t threads = util::ThreadRegistry::high_watermark();
  hazards.reserve(threads * kSlotsPerThread);
  for (std::size_t i = 0; i < threads * kSlotsPerThread; ++i) {
    const void* p = slots_[i]->load(std::memory_order_seq_cst);
    if (p != nullptr) hazards.push_back(p);
  }
  std::sort(hazards.begin(), hazards.end());

  // Stage 2: free what is not protected; keep the rest queued.
  RetireList& mine = lists_.mine();
  std::vector<Retired> still_hazardous;
  still_hazardous.reserve(mine.items.size());
  for (const Retired& r : mine.items) {
    if (std::binary_search(hazards.begin(), hazards.end(),
                           static_cast<const void*>(r.ptr))) {
      still_hazardous.push_back(r);
    } else {
      r.deleter(r.ptr);
    }
  }
  util::trace_event(util::Ev::kScan,
                    mine.items.size() - still_hazardous.size());
  util::MetricsRegistry::add(freed_metric(),
                             mine.items.size() - still_hazardous.size());
  mine.items = std::move(still_hazardous);
}

std::size_t HazardDomain::total_backlog() const noexcept {
  std::size_t total = 0;
  for (const auto& list : lists_.live()) total += list->items.size();
  return total;
}

}  // namespace hohtm::reclaim
