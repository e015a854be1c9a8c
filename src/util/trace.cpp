#include "util/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>

namespace hohtm::util {

std::uint64_t Trace::steady_now() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Trace::set_clock(ClockFn fn) noexcept {
  clock_fn_.store(fn, std::memory_order_relaxed);
}

std::size_t Trace::size() noexcept {
  std::size_t total = 0;
  for (const auto& ring : rings_.live())
    total += static_cast<std::size_t>(
        std::min<std::uint64_t>(ring->next, kCapacity));
  return total;
}

std::uint64_t Trace::dropped() noexcept {
  std::uint64_t total = 0;
  for (const auto& ring : rings_.live()) {
    const std::uint64_t next = ring->next;
    if (next > kCapacity) total += next - kCapacity;
  }
  return total;
}

std::vector<TraceRecord> Trace::snapshot() {
  std::vector<TraceRecord> out;
  out.reserve(size());
  for (const auto& padded : rings_.live()) {
    const Ring& ring = padded.value;
    const std::uint64_t count = std::min<std::uint64_t>(ring.next, kCapacity);
    for (std::uint64_t k = ring.next - count; k < ring.next; ++k)
      out.push_back(ring.events[k & (kCapacity - 1)]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.ts < b.ts;
                   });
  return out;
}

void Trace::drain_json(std::FILE* out) {
  const std::vector<TraceRecord> events = snapshot();
  std::fputs("[\n", out);
  bool first = true;
  for (const TraceRecord& e : events) {
    if (!first) std::fputs(",\n", out);
    first = false;
    // Chrome trace-event format: instant events, ts in microseconds.
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"hohtm\",\"ph\":\"i\",\"s\":\"t\","
                 "\"pid\":0,\"tid\":%" PRIu32 ",\"ts\":%.3f,"
                 "\"args\":{\"v\":%" PRIu64 "}}",
                 kEvNames[static_cast<std::size_t>(e.kind)], e.tid,
                 static_cast<double>(e.ts) / 1000.0, e.arg);
  }
  std::fputs("\n]\n", out);
}

void Trace::reset() noexcept {
  for (auto& ring : rings_.live()) ring->next = 0;
}

#ifdef HOHTM_TRACE_ENABLED
namespace {
/// Trace builds honor HOHTM_TRACE_FILE: if set, the retained events are
/// drained to it as Chrome trace JSON when the process exits (after main
/// returns all worker threads are joined, so the drain is quiescent).
struct TraceFileAtExit {
  TraceFileAtExit() {
    std::atexit([] {
      const char* path = std::getenv("HOHTM_TRACE_FILE");
      if (path == nullptr || path[0] == '\0') return;
      if (std::FILE* f = std::fopen(path, "w")) {
        Trace::drain_json(f);
        std::fclose(f);
      }
    });
  }
};
const TraceFileAtExit g_trace_file_at_exit;
}  // namespace
#endif

}  // namespace hohtm::util
