#include "util/metrics.hpp"

#include <cstdlib>
#include <mutex>

namespace hohtm::util {

namespace {

// Registration tables live behind a Meyers singleton so cold-path
// registration from static initializers in other TUs is ordered safely.
struct Tables {
  std::mutex mu;
  int counter_count = 0;
  std::string counter_names[MetricsRegistry::kMaxMetrics];
  int gauge_count = 0;
  std::string gauge_names[MetricsRegistry::kMaxGauges];
  MetricsRegistry::GaugeFn gauge_fns[MetricsRegistry::kMaxGauges] = {};
  int section_count = 0;
  std::string section_names[MetricsRegistry::kMaxSections];
  MetricsRegistry::SectionFn section_fns[MetricsRegistry::kMaxSections] = {};
  bool env_dump_armed = false;
};

Tables& tables() {
  static Tables t;
  return t;
}

void json_escaped(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fprintf(out, "\\%c", c);
    else if (static_cast<unsigned char>(c) < 0x20)
      std::fprintf(out, "\\u%04x", static_cast<unsigned>(c));
    else
      std::fputc(c, out);
  }
  std::fputc('"', out);
}

void dump_to_env_file() {
  const char* path = std::getenv("HOHTM_METRICS_FILE");
  if (path == nullptr || *path == '\0') return;
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  MetricsRegistry::write_json(out);
  std::fclose(out);
  std::fprintf(stderr, "hohtm: metrics snapshot written to %s\n", path);
}

}  // namespace

int MetricsRegistry::counter(const char* name) {
  Tables& t = tables();
  std::lock_guard<std::mutex> lock(t.mu);
  for (int i = 0; i < t.counter_count; ++i)
    if (t.counter_names[i] == name) return i;
  if (t.counter_count >= kMaxMetrics) return -1;
  t.counter_names[t.counter_count] = name;
  return t.counter_count++;
}

void MetricsRegistry::add(int id, std::uint64_t n) noexcept {
  if (id < 0 || id >= kMaxMetrics) return;
  std::atomic<std::uint64_t>& cell = slots_.mine().v[id];
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_release);
}

std::uint64_t MetricsRegistry::total(int id) noexcept {
  if (id < 0 || id >= kMaxMetrics) return 0;
  std::uint64_t sum = 0;
  for (const auto& slot : slots_.live())
    sum += slot->v[id].load(std::memory_order_acquire);
  return sum;
}

bool MetricsRegistry::register_gauge(const char* name, GaugeFn fn) {
  Tables& t = tables();
  std::lock_guard<std::mutex> lock(t.mu);
  for (int i = 0; i < t.gauge_count; ++i) {
    if (t.gauge_names[i] == name) {
      t.gauge_fns[i] = fn;
      return true;
    }
  }
  if (t.gauge_count >= kMaxGauges) return false;
  t.gauge_names[t.gauge_count] = name;
  t.gauge_fns[t.gauge_count] = fn;
  ++t.gauge_count;
  return true;
}

bool MetricsRegistry::register_section(const char* name, SectionFn fn) {
  Tables& t = tables();
  std::lock_guard<std::mutex> lock(t.mu);
  for (int i = 0; i < t.section_count; ++i) {
    if (t.section_names[i] == name) {
      t.section_fns[i] = fn;
      return true;
    }
  }
  if (t.section_count >= kMaxSections) return false;
  t.section_names[t.section_count] = name;
  t.section_fns[t.section_count] = fn;
  ++t.section_count;
  return true;
}

void MetricsRegistry::write_json(std::FILE* out) {
  // Copy the name tables under the mutex, then render without it: a
  // section renderer may itself call back into the registry.
  Tables& t = tables();
  int counters;
  int gauges;
  int sections;
  std::string counter_names[kMaxMetrics];
  std::string gauge_names[kMaxGauges];
  GaugeFn gauge_fns[kMaxGauges];
  std::string section_names[kMaxSections];
  SectionFn section_fns[kMaxSections];
  {
    std::lock_guard<std::mutex> lock(t.mu);
    counters = t.counter_count;
    gauges = t.gauge_count;
    sections = t.section_count;
    for (int i = 0; i < counters; ++i) counter_names[i] = t.counter_names[i];
    for (int i = 0; i < gauges; ++i) {
      gauge_names[i] = t.gauge_names[i];
      gauge_fns[i] = t.gauge_fns[i];
    }
    for (int i = 0; i < sections; ++i) {
      section_names[i] = t.section_names[i];
      section_fns[i] = t.section_fns[i];
    }
  }

  std::fputs("{\n  \"counters\": {", out);
  for (int i = 0; i < counters; ++i) {
    std::fputs(i == 0 ? "\n    " : ",\n    ", out);
    json_escaped(out, counter_names[i]);
    std::fprintf(out, ": %llu",
                 static_cast<unsigned long long>(total(i)));
  }
  std::fputs(counters == 0 ? "},\n" : "\n  },\n", out);

  std::fputs("  \"gauges\": {", out);
  for (int i = 0; i < gauges; ++i) {
    std::fputs(i == 0 ? "\n    " : ",\n    ", out);
    json_escaped(out, gauge_names[i]);
    std::fprintf(out, ": %lld",
                 static_cast<long long>(gauge_fns[i] != nullptr
                                            ? gauge_fns[i]()
                                            : 0));
  }
  std::fputs(gauges == 0 ? "},\n" : "\n  },\n", out);

  std::fputs("  \"sections\": {", out);
  for (int i = 0; i < sections; ++i) {
    std::fputs(i == 0 ? "\n    " : ",\n    ", out);
    json_escaped(out, section_names[i]);
    std::fputs(": ", out);
    if (section_fns[i] != nullptr)
      section_fns[i](out);
    else
      std::fputs("null", out);
  }
  std::fputs(sections == 0 ? "}\n" : "\n  }\n", out);
  std::fputs("}\n", out);
}

std::string MetricsRegistry::snapshot_json() {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  if (mem == nullptr) return {};
  write_json(mem);
  std::fclose(mem);
  std::string result(buf, len);
  std::free(buf);
  return result;
}

void MetricsRegistry::enable_env_dump() {
  Tables& t = tables();
  std::lock_guard<std::mutex> lock(t.mu);
  if (t.env_dump_armed) return;
  t.env_dump_armed = true;
  std::atexit(dump_to_env_file);
}

void MetricsRegistry::reset_counters_for_testing() noexcept {
  for (auto& padded : slots_.live())
    for (auto& cell : padded->v)
      cell.store(0, std::memory_order_release);
}

}  // namespace hohtm::util
