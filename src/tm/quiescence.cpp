#include "tm/quiescence.hpp"

#include "tm/config.hpp"
#include "util/backoff.hpp"
#include "util/trace.hpp"

namespace hohtm::tm {

void Quiescence::wait_until(std::uint64_t ts) const noexcept {
  // Bug-injection mutant for the schedule explorer: skipping the fence
  // must let it catch a use-after-free ordering within a bounded search.
  if (sched::mutate(sched::Mutation::kSkipQuiescenceWait)) return;
  Stats::mine().quiescence_waits += 1;
  const std::uint64_t stall_start = util::trace_quiesce_enter();
  // Under the virtual scheduler, block on the whole-fence predicate so
  // the wait is a single disabled-until-true step whose enabledness does
  // not depend on registry slot-scan order (keeps replays exact).
  sched::spin_wait(sched::Op::kQuiesceWait,
                   [this, ts] { return settled_at(ts); });
  for (const auto& slot : slots_.live()) {
    util::Backoff backoff;
    for (;;) {
      const std::uint64_t published = slot->load(std::memory_order_acquire);
      if (published == 0 || published >= ts + 1) {
        // The slot owner's accesses up to its publish/deactivate now
        // happen-before the deferred frees that follow this fence.
        tsan::acquire(&*slot);
        break;
      }
      backoff.pause();
    }
  }
  util::trace_quiesce_exit(stall_start);
}

void Quiescence::wait_all_inactive() const noexcept {
  Stats::mine().quiescence_waits += 1;
  const std::uint64_t stall_start = util::trace_quiesce_enter();
  sched::spin_wait(sched::Op::kQuiesceWait, [this] { return all_inactive(); });
  for (const auto& slot : slots_.live()) {
    util::Backoff backoff;
    while (slot->load(std::memory_order_acquire) != 0) backoff.pause();
    tsan::acquire(&*slot);  // see wait_until
  }
  util::trace_quiesce_exit(stall_start);
}

}  // namespace hohtm::tm
