#include "harness/report.hpp"

#include <cstdio>
#include <utility>

#include "harness/metrics.hpp"
#include "tm/config.hpp"

namespace hohtm::harness {
namespace {

// The `# columns:` line emit_row printed last; emit_header clears it so
// every bench block names its columns before its first row.
std::string last_columns;

std::string column_names(const CellResult& cell) {
  std::string names = "figure,panel,series,threads,mops,cv_pct,commits,aborts";
  for (std::size_t i = 0; i < tm::kAbortCauseCount; ++i) {
    names += ',';
    names += tm::kAbortCauseNames[i];
  }
  names +=
      ",res_lost,fused_windows,commit_p50_ns,commit_p95_ns,commit_p99_ns"
      ",commit_max_ns,live_peak,res_lost_attr,aborts_attr,quiescence_waits";
  for (const auto& [name, value] : cell.columns) {
    names += ',';
    names += name;
  }
  return names;
}

}  // namespace

void emit_header(const std::string& figure, const std::string& description) {
  install_standard_sections();  // every bench is metrics-snapshot capable
  std::printf("# %s: %s\n", figure.c_str(), description.c_str());
  last_columns.clear();
  std::fflush(stdout);
}

void emit_panel_note(const std::string& figure, const std::string& panel) {
  std::printf("# %s panel=%s\n", figure.c_str(), panel.c_str());
  std::fflush(stdout);
}

void emit_row(const std::string& figure, const std::string& panel,
              const std::string& series, int threads, const CellResult& cell) {
  std::string names = column_names(cell);
  if (names != last_columns) {
    std::printf("# columns: %s\n", names.c_str());
    last_columns = std::move(names);
  }
  std::printf("%s,%s,%s,%d,%.4f,%.2f", figure.c_str(), panel.c_str(),
              series.c_str(), threads, cell.mops.mean,
              cell.mops.cv_percent());
  const tm::StatCounters& c = cell.counters;
  std::printf(",%llu,%llu", static_cast<unsigned long long>(c.commits),
              static_cast<unsigned long long>(c.aborts));
  for (std::size_t i = 0; i < tm::kAbortCauseCount; ++i)
    std::printf(",%llu", static_cast<unsigned long long>(c.by_cause[i]));
  std::printf(",%llu", static_cast<unsigned long long>(c.reservation_losses));
  std::printf(",%llu", static_cast<unsigned long long>(c.fused_windows));
  const util::Histogram& commit = cell.latency.commit_ns;
  std::printf(",%llu,%llu,%llu,%llu",
              static_cast<unsigned long long>(commit.percentile(0.50)),
              static_cast<unsigned long long>(commit.percentile(0.95)),
              static_cast<unsigned long long>(commit.percentile(0.99)),
              static_cast<unsigned long long>(commit.max()));
  std::printf(",%lld", cell.live_peak);
  // Causal attribution: how many of the losses / aborts carry a known
  // aborter slot (the rest landed in the unknown buckets).
  std::printf(",%llu,%llu",
              static_cast<unsigned long long>(c.attributed_losses()),
              static_cast<unsigned long long>(c.attributed_aborts()));
  std::printf(",%llu", static_cast<unsigned long long>(c.quiescence_waits));
  for (const auto& [name, value] : cell.columns)
    std::printf(",%llu", static_cast<unsigned long long>(value));
  std::printf("\n");
  for (const FootprintSample& s : cell.footprint)
    emit_timeline_row(figure, panel, series, threads, s.t_ms, s.live);
  std::fflush(stdout);
}

void emit_timeline_row(const std::string& figure, const std::string& panel,
                       const std::string& series, int threads, double t,
                       long long live) {
  std::printf("timeline,%s,%s,%s,%d,%.2f,%lld\n", figure.c_str(),
              panel.c_str(), series.c_str(), threads, t, live);
}

}  // namespace hohtm::harness
