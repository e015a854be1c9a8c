// Workload harness: prefill determinism, environment parsing, and the
// measurement driver end to end.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ds/sll_hoh.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "harness/workload.hpp"

namespace hohtm::harness {
namespace {

TEST(Workload, PrefillIsHalfTheRangeAndUnique) {
  WorkloadConfig config;
  config.key_bits = 8;
  const auto keys = prefill_keys(config);
  EXPECT_EQ(keys.size(), 128u);
  std::set<long> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
  for (long k : keys) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 256);
  }
}

TEST(Workload, PrefillDeterministicPerSeed) {
  WorkloadConfig a;
  a.key_bits = 6;
  WorkloadConfig b = a;
  EXPECT_EQ(prefill_keys(a), prefill_keys(b));
  b.seed = 77;
  EXPECT_NE(prefill_keys(a), prefill_keys(b));
}

TEST(Workload, EnvironmentParsing) {
  setenv("HOH_BENCH_OPS", "123", 1);
  setenv("HOH_BENCH_TRIALS", "4", 1);
  setenv("HOH_BENCH_THREADS", "2,6", 1);
  setenv("HOH_BENCH_BIGBITS", "21", 1);
  const BenchEnv env = BenchEnv::from_environment();
  EXPECT_EQ(env.ops_per_thread, 123u);
  EXPECT_EQ(env.trials, 4);
  EXPECT_EQ(env.thread_counts, (std::vector<int>{2, 6}));
  EXPECT_EQ(env.big_key_bits, 21);
  unsetenv("HOH_BENCH_OPS");
  unsetenv("HOH_BENCH_TRIALS");
  unsetenv("HOH_BENCH_THREADS");
  unsetenv("HOH_BENCH_BIGBITS");
}

TEST(Workload, EnvironmentDefaults) {
  unsetenv("HOH_BENCH_OPS");
  unsetenv("HOH_BENCH_TRIALS");
  unsetenv("HOH_BENCH_THREADS");
  unsetenv("HOH_BENCH_BIGBITS");
  const BenchEnv env = BenchEnv::from_environment();
  EXPECT_GT(env.ops_per_thread, 0u);
  EXPECT_GE(env.trials, 1);
  EXPECT_FALSE(env.thread_counts.empty());
}

TEST(Driver, RunsTrialsAndReportsThroughput) {
  using TM = tm::Norec;
  using List = ds::SllHoh<TM, rr::RrV<TM>>;
  WorkloadConfig config;
  config.key_bits = 6;
  config.lookup_pct = 33;
  config.threads = 2;
  config.ops_per_thread = 2000;
  config.trials = 2;
  const CellResult cell =
      run_cell(config, [&] { return std::make_unique<List>(config.window); });
  EXPECT_EQ(cell.mops.n, 2u);
  EXPECT_GT(cell.mops.mean, 0.0);
  EXPECT_GT(cell.mops.min, 0.0);
}

TEST(Driver, LookupOnlyMixDoesNotMutate) {
  using TM = tm::Norec;
  using List = ds::SllHoh<TM, rr::RrV<TM>>;
  WorkloadConfig config;
  config.key_bits = 6;
  config.lookup_pct = 100;
  config.threads = 2;
  config.ops_per_thread = 2000;
  config.trials = 1;
  List* witness = nullptr;
  std::size_t prefill_size = 0;
  run_cell(config, [&] {
    auto list = std::make_unique<List>(config.window);
    witness = list.get();
    for (long k : prefill_keys(config)) list->insert(k);
    prefill_size = list->size();
    // run_cell prefills again on the same instance; inserts of present
    // keys are no-ops, so the size stays put.
    return list;
  });
  (void)witness;
  EXPECT_EQ(prefill_size, 32u);
}

// Blocks the calling thread until `deadline` (a deadline wait rather
// than a sleep: the lint forbids sleep-based pauses in tests too).
void block_until(std::chrono::steady_clock::time_point deadline) {
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_until(lock, deadline, [&] {
    return std::chrono::steady_clock::now() >= deadline;
  });
}

// The duration run_timed reports must cover every worker's own span,
// including a worker that starts its ops ~20 ms late: the workers stamp
// the clock themselves, so no thread's scheduling can shrink it.
TEST(RunTimed, DurationCoversEveryWorkerSpan) {
  using Clock = std::chrono::steady_clock;
  constexpr int kThreads = 3;
  std::vector<double> spans(kThreads, 0.0);
  const TimedRun run = run_timed(kThreads, 0, [&](int t) {
    const auto begin = Clock::now();
    if (t == 1) block_until(begin + std::chrono::milliseconds(20));
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
    spans[static_cast<std::size_t>(t)] =
        std::chrono::duration<double>(Clock::now() - begin).count();
  });
  EXPECT_GE(spans[1], 0.020);
  for (double span : spans) EXPECT_GE(run.seconds, span);
  EXPECT_TRUE(run.footprint.empty());
}

TEST(RunTimed, FootprintSamplesIffCadenceSet) {
  for (int footprint_ms : {0, 1}) {
    const TimedRun run = run_timed(2, footprint_ms, [](int t) {
      if (t == 0)
        block_until(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(5));
    });
    EXPECT_EQ(!run.footprint.empty(), footprint_ms > 0) << footprint_ms;
    for (const FootprintSample& s : run.footprint) EXPECT_GE(s.t_ms, 0.0);
  }
}

TEST(CellResult, ColumnsAccumulateInFirstUseOrder) {
  CellResult cell;
  cell.add("b", 2);
  cell.add("a", 1);
  cell.add("b", 5);
  ASSERT_EQ(cell.columns.size(), 2u);
  EXPECT_EQ(cell.columns[0].first, "b");
  EXPECT_EQ(cell.column("b"), 7u);
  EXPECT_EQ(cell.column("a"), 1u);
  EXPECT_EQ(cell.column("missing"), 0u);
}

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream stream(line);
  std::string field;
  while (std::getline(stream, field, ',')) fields.push_back(field);
  return fields;
}

// One emitter for every row shape: a `# columns:` line precedes each
// change of column set (and only a change), and every data row has
// exactly as many fields as the header before it names.
TEST(Report, HeaderPrecedesEachColumnSetChange) {
  CellResult base;
  CellResult kv;
  for (const char* name : {"kv_hits", "kv_misses", "kv_migrations",
                           "kv_resizes", "kv_scans", "kv_scan_windows",
                           "kv_scan_resumes"})
    kv.add(name, 1);
  CellResult net = kv;
  for (const char* name :
       {"net_batches", "net_fused_ops", "net_bytes_in", "net_bytes_out"})
    net.add(name, 2);

  testing::internal::CaptureStdout();
  emit_header("test", "emitter");
  emit_row("test", "p", "base", 1, base);
  emit_row("test", "p", "base", 2, base);
  emit_row("test", "p", "kv", 1, kv);
  emit_row("test", "p", "net", 1, net);
  emit_row("test", "p", "base", 4, base);
  const std::string out = testing::internal::GetCapturedStdout();

  std::stringstream lines(out);
  std::string line;
  std::vector<std::string> header;
  std::vector<std::size_t> header_widths;
  int rows = 0;
  const std::string prefix = "# columns: ";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) {
      header = split(line.substr(prefix.size()));
      header_widths.push_back(header.size());
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    ++rows;
    ASSERT_FALSE(header.empty()) << "row before any header: " << line;
    EXPECT_EQ(split(line).size(), header.size()) << line;
  }
  EXPECT_EQ(rows, 5);
  // base, kv, net, base again: four headers, the repeated base row
  // printing none.
  ASSERT_EQ(header_widths.size(), 4u);
  EXPECT_EQ(header_widths[0], 25u);
  EXPECT_EQ(header_widths[1], 32u);
  EXPECT_EQ(header_widths[2], 36u);
  EXPECT_EQ(header_widths[3], 25u);
}

}  // namespace
}  // namespace hohtm::harness
