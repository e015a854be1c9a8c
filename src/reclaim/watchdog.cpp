#include "reclaim/watchdog.hpp"

#include <chrono>
#include <mutex>

#include "util/metrics.hpp"

namespace hohtm::reclaim {
namespace {

// Baseline state for stall detection. Written only under the mutex in
// check(); the hot path never touches it.
struct Baseline {
  std::uint64_t progress = 0;
  std::uint64_t since_ns = 0;  // first check() that saw this progress value
  bool active = false;
  bool reported = false;  // already counted as a stall event
};

struct CheckState {
  std::mutex mu;
  Baseline baselines[util::kMaxThreads];
};

CheckState& state() {
  static CheckState s;
  return s;
}

int stall_metric() {
  static const int id = util::MetricsRegistry::counter("watchdog.stalls");
  return id;
}

}  // namespace

Watchdog::Report Watchdog::check(std::uint64_t now_ns) {
  CheckState& cs = state();
  std::lock_guard<std::mutex> lock(cs.mu);
  Report report;
  const std::uint64_t threshold = threshold_ns();
  const auto live = slots_.live();
  for (std::size_t i = 0; i < live.size(); ++i) {
    const Slot& slot = live[i].value;
    Baseline& base = cs.baselines[i];
    const bool active = slot.active.load(std::memory_order_relaxed) != 0;
    const std::uint64_t progress =
        slot.progress.load(std::memory_order_relaxed);
    if (!active || !base.active || progress != base.progress) {
      // Inactive, newly active, or made progress: (re)arm the baseline.
      base = Baseline{progress, now_ns, active, false};
      if (active) report.active_threads += 1;
      continue;
    }
    report.active_threads += 1;
    const std::uint64_t stalled_for = now_ns - base.since_ns;
    if (stalled_for > threshold) {
      report.stalled_threads += 1;
      if (stalled_for > report.max_stall_ns) report.max_stall_ns = stalled_for;
      if (!base.reported) {
        base.reported = true;
        stall_events_.fetch_add(1, std::memory_order_acq_rel);
        util::MetricsRegistry::add(stall_metric());
      }
    }
  }
  return report;
}

Watchdog::Report Watchdog::check_now() {
  return check(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count()));
}

void Watchdog::reset_for_testing() noexcept {
  CheckState& cs = state();
  std::lock_guard<std::mutex> lock(cs.mu);
  for (Baseline& base : cs.baselines) base = Baseline{};
  stall_events_.store(0, std::memory_order_release);
}

}  // namespace hohtm::reclaim
