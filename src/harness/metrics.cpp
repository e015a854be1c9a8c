#include "harness/metrics.hpp"

#include <cinttypes>
#include <cstdio>

#include "kv/contention.hpp"
#include "reclaim/gauge.hpp"
#include "reclaim/watchdog.hpp"
#include "tm/config.hpp"
#include "util/metrics.hpp"

namespace hohtm::harness {
namespace {

void write_u64_array(std::FILE* out, const std::uint64_t* vals,
                     std::size_t n) {
  std::fputc('[', out);
  for (std::size_t i = 0; i < n; ++i)
    std::fprintf(out, "%s%" PRIu64, i == 0 ? "" : ",", vals[i]);
  std::fputc(']', out);
}

void tm_section(std::FILE* out) {
  const tm::StatCounters c = tm::Stats::total();
  std::fprintf(out,
               "{\"commits\":%" PRIu64 ",\"aborts\":%" PRIu64
               ",\"serial_commits\":%" PRIu64 ",\"res_lost\":%" PRIu64
               ",\"fused_windows\":%" PRIu64 ",\"fused_aborts\":%" PRIu64
               ",\"validations\":%" PRIu64,
               c.commits, c.aborts, c.serial_commits, c.reservation_losses,
               c.fused_windows, c.fused_aborts, c.validations);
  std::fprintf(out, ",\"by_cause\":{");
  for (std::size_t i = 0; i < tm::kAbortCauseCount; ++i)
    std::fprintf(out, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
                 tm::kAbortCauseNames[i], c.by_cause[i]);
  std::fputc('}', out);
  // The attribution buckets. loss_by_aborter sums to res_lost exactly;
  // aborted_by sums to aborted_attr + unknowns (<= aborts).
  std::fprintf(out,
               ",\"attribution\":{\"losses_attributed\":%" PRIu64
               ",\"losses_unknown\":%" PRIu64 ",\"aborts_attributed\":%" PRIu64
               ",\"aborts_unknown\":%" PRIu64
               ",\"fusion_fb_attributed\":%" PRIu64
               ",\"fusion_fb_unknown\":%" PRIu64,
               c.attributed_losses(), c.unknown_losses(),
               c.attributed_aborts(),
               c.aborted_by[tm::StatCounters::kAttrUnknown],
               c.fusion_fb_attributed, c.fusion_fb_unknown);
  std::fprintf(out, ",\"loss_by_site\":{");
  for (std::size_t i = 0; i < tm::kRevokeSiteCount; ++i)
    std::fprintf(out, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
                 tm::kRevokeSiteNames[i], c.loss_by_site[i]);
  std::fputc('}', out);
  std::fprintf(out, ",\"loss_by_aborter\":");
  write_u64_array(out, c.loss_by_aborter, tm::StatCounters::kAttrSlots);
  std::fprintf(out, ",\"aborted_by\":");
  write_u64_array(out, c.aborted_by, tm::StatCounters::kAttrSlots);
  std::fputs("}}", out);
}

void heatmap_section(std::FILE* out) { kv::ContentionMap::write_json(out); }

void watchdog_section(std::FILE* out) {
  const reclaim::Watchdog::Report r = reclaim::Watchdog::check_now();
  std::fprintf(out,
               "{\"threshold_ns\":%" PRIu64 ",\"active_threads\":%d"
               ",\"stalled_threads\":%d,\"max_stall_ns\":%" PRIu64
               ",\"stall_events\":%" PRIu64 "}",
               reclaim::Watchdog::threshold_ns(), r.active_threads,
               r.stalled_threads, r.max_stall_ns,
               reclaim::Watchdog::stall_events());
}

std::int64_t live_gauge() { return reclaim::Gauge::live(); }
std::int64_t peak_gauge() { return reclaim::Gauge::peak(); }

std::int64_t backlog(const char* retired, const char* freed) {
  using Reg = util::MetricsRegistry;
  return static_cast<std::int64_t>(Reg::total(Reg::counter(retired))) -
         static_cast<std::int64_t>(Reg::total(Reg::counter(freed)));
}
std::int64_t epoch_backlog_gauge() {
  return backlog("epoch.retired", "epoch.freed");
}
std::int64_t hazard_backlog_gauge() {
  return backlog("hazard.retired", "hazard.freed");
}

}  // namespace

void install_standard_sections() {
  using Reg = util::MetricsRegistry;
  Reg::register_section("tm", &tm_section);
  Reg::register_section("kv_heatmap", &heatmap_section);
  Reg::register_section("watchdog", &watchdog_section);
  Reg::register_gauge("reclaim.live", &live_gauge);
  Reg::register_gauge("reclaim.peak", &peak_gauge);
  Reg::register_gauge("epoch.backlog", &epoch_backlog_gauge);
  Reg::register_gauge("hazard.backlog", &hazard_backlog_gauge);
  Reg::enable_env_dump();
}

std::string metrics_snapshot_json() {
  install_standard_sections();
  return util::MetricsRegistry::snapshot_json();
}

}  // namespace hohtm::harness
