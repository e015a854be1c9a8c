// Unit tests for the always-on metrics plane (util::MetricsRegistry),
// the kv contention heatmap (kv::ContentionMap), and the reclamation-stall
// watchdog (reclaim::Watchdog), plus the plane end to end: a contended kv
// cell whose causal-attribution buckets must sum exactly to its
// reservation losses, and a thread parked inside a real transaction that
// the watchdog must report. No sleeps and no wall-clock dependence: the
// watchdog is driven with explicit timestamps, and the concurrent
// snapshot test asserts monotonicity, not timing.
//
// With $HOHTM_METRICS_FILE set, the attribution test leaves its snapshot
// there at exit; scripts/check.sh --metrics runs tools/metrics_report.py
// --check over it.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rr.hpp"
#include "harness/metrics.hpp"
#include "kv/contention.hpp"
#include "kv/workload.hpp"
#include "reclaim/watchdog.hpp"
#include "util/barrier.hpp"
#include "util/metrics.hpp"

namespace {

using hohtm::kv::ContentionMap;
using hohtm::reclaim::Watchdog;
using hohtm::tm::Norec;
using hohtm::util::MetricsRegistry;

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  const int id = MetricsRegistry::counter("test.idempotent");
  ASSERT_GE(id, 0);
  EXPECT_EQ(MetricsRegistry::counter("test.idempotent"), id);
  const int other = MetricsRegistry::counter("test.idempotent.other");
  EXPECT_NE(other, id);
}

TEST(MetricsRegistry, NegativeIdIsHarmless) {
  MetricsRegistry::add(-1);  // must not crash or write anywhere
  EXPECT_EQ(MetricsRegistry::total(-1), 0u);
}

// A retired thread's counts must survive: the cells stay in the registry
// slot, and a later thread recycling that slot keeps adding to them.
TEST(MetricsRegistry, ThreadRetirementLosesNoCounts) {
  const int id = MetricsRegistry::counter("test.retire");
  ASSERT_GE(id, 0);
  MetricsRegistry::reset_counters_for_testing();
  MetricsRegistry::add(id, 5);
  std::thread first([&] { MetricsRegistry::add(id, 1000); });
  first.join();  // thread retires; its registry slot may now be recycled
  std::thread second([&] { MetricsRegistry::add(id, 500); });
  second.join();
  EXPECT_EQ(MetricsRegistry::total(id), 1505u);
}

// Snapshot-during-update: aggregation is lock-free, so totals observed
// while writers are mid-burst must be monotone and land exactly on the
// final sum once the writers join.
TEST(MetricsRegistry, SnapshotDuringUpdateIsMonotone) {
  const int id = MetricsRegistry::counter("test.concurrent");
  ASSERT_GE(id, 0);
  MetricsRegistry::reset_counters_for_testing();
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  hohtm::util::SpinBarrier barrier(kWriters + 1);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPerWriter; ++i)
        MetricsRegistry::add(id);
    });
  }
  barrier.arrive_and_wait();
  std::uint64_t last = 0;
  for (int probe = 0; probe < 1000; ++probe) {
    const std::uint64_t now = MetricsRegistry::total(id);
    ASSERT_GE(now, last);  // owner-only release stores: sums never regress
    ASSERT_LE(now, kWriters * kPerWriter);
    last = now;
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(MetricsRegistry::total(id), kWriters * kPerWriter);
}

TEST(MetricsRegistry, SnapshotJsonCarriesAllThreeKinds) {
  const int id = MetricsRegistry::counter("test.json.counter");
  ASSERT_GE(id, 0);
  MetricsRegistry::reset_counters_for_testing();
  MetricsRegistry::add(id, 7);
  ASSERT_TRUE(MetricsRegistry::register_gauge("test.json.gauge",
                                              [] { return std::int64_t{42}; }));
  ASSERT_TRUE(MetricsRegistry::register_section(
      "test.json.section",
      [](std::FILE* out) { std::fputs("{\"x\": 1}", out); }));
  const std::string doc = MetricsRegistry::snapshot_json();
  EXPECT_NE(doc.find("\"test.json.counter\": 7"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"test.json.gauge\": 42"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"test.json.section\": {\"x\": 1}"),
            std::string::npos) << doc;
}

// Registration past the fixed capacity must degrade, not reallocate:
// -1 ids that every later add() ignores. (Runs in its own ctest process,
// so filling the table cannot starve the other tests.)
TEST(MetricsRegistry, TableOverflowReturnsMinusOne) {
  int last = 0;
  for (int i = 0; last >= 0 && i <= MetricsRegistry::kMaxMetrics; ++i)
    last = MetricsRegistry::counter(
        ("test.overflow." + std::to_string(i)).c_str());
  EXPECT_EQ(last, -1);
  MetricsRegistry::add(last);  // and the failed id stays harmless
}

TEST(ContentionMapTest, TopMergesThreadsAndOrdersByWeight) {
  ContentionMap::reset();
  ContentionMap::note(0, 10, 5);
  ContentionMap::note(1, 20, 2);
  std::thread peer([] {
    ContentionMap::note(0, 10, 6);  // same cell from another thread
    ContentionMap::note(2, 30, 1);
  });
  peer.join();
  const auto hot = ContentionMap::top(4);
  ASSERT_GE(hot.size(), 3u);
  EXPECT_EQ(hot[0].shard, 0u);
  EXPECT_EQ(hot[0].cell, 10u);
  EXPECT_EQ(hot[0].weight, 11u);  // merged across both threads
  EXPECT_EQ(hot[1].weight, 2u);
  ContentionMap::reset();
  EXPECT_TRUE(ContentionMap::top(1).empty());
}

TEST(ContentionMapTest, CellOfIsStableAndInRange) {
  const std::uint64_t h = 0xDEADBEEFCAFEF00DULL;
  for (std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
    const std::uint32_t cell = ContentionMap::cell_of(h, shards);
    EXPECT_LT(cell, 1u << ContentionMap::kCellBits);
    // Same hash, same shard count -> same cell, across "resizes": the
    // cell is a function of the hash alone, never of the bucket count.
    EXPECT_EQ(ContentionMap::cell_of(h, shards), cell);
  }
}

// The watchdog contract, driven with explicit timestamps: a thread that
// is active at two samples with unchanged progress and elapsed past the
// threshold is stalled; progress or deactivation re-arms it; a stall
// counts as ONE event no matter how many checks observe it.
TEST(WatchdogTest, DetectsStallExactlyOncePerEpisode) {
  Watchdog::reset_for_testing();
  const std::uint64_t threshold = Watchdog::threshold_ns();
  Watchdog::on_publish();  // enter a window: active, progress = p
  const std::uint64_t t0 = 1;
  Watchdog::Report armed = Watchdog::check(t0);
  EXPECT_GE(armed.active_threads, 1);
  EXPECT_EQ(armed.stalled_threads, 0);
  Watchdog::Report tripped = Watchdog::check(t0 + threshold + 1);
  EXPECT_GE(tripped.stalled_threads, 1);
  EXPECT_GT(tripped.max_stall_ns, threshold);
  EXPECT_EQ(Watchdog::stall_events(), 1u);
  // Still parked at a later sample: stalled again, but no second event.
  Watchdog::Report still = Watchdog::check(t0 + 3 * threshold);
  EXPECT_GE(still.stalled_threads, 1);
  EXPECT_EQ(Watchdog::stall_events(), 1u);
  Watchdog::on_deactivate();
  Watchdog::Report after = Watchdog::check(t0 + 4 * threshold);
  EXPECT_EQ(after.stalled_threads, 0);
}

TEST(WatchdogTest, ProgressSuppressesTheStall) {
  Watchdog::reset_for_testing();
  const std::uint64_t threshold = Watchdog::threshold_ns();
  Watchdog::on_publish();
  Watchdog::check(1);              // arm
  Watchdog::on_publish();          // progress moved: a new window began
  Watchdog::Report report = Watchdog::check(1 + threshold + 1);
  EXPECT_EQ(report.stalled_threads, 0);  // baseline re-armed, not stalled
  EXPECT_EQ(Watchdog::stall_events(), 0u);
  Watchdog::on_deactivate();
}

TEST(WatchdogTest, ThresholdIsAdjustable) {
  Watchdog::reset_for_testing();
  const std::uint64_t saved = Watchdog::threshold_ns();
  Watchdog::set_threshold_ns(10);
  EXPECT_EQ(Watchdog::threshold_ns(), 10u);
  Watchdog::on_publish();
  Watchdog::check(100);
  EXPECT_GE(Watchdog::check(200).stalled_threads, 1);  // 100ns >> 10ns
  Watchdog::on_deactivate();
  Watchdog::set_threshold_ns(saved);
}

// The hooks themselves, not direct on_publish() calls: a thread blocked
// inside a real TM::atomically body (begin() has published its
// quiescence slot) must be the one active thread, and the one stalled
// thread once a check lands past the threshold.
TEST(WatchdogTest, ReportsThreadParkedInsideRealTransaction) {
  Watchdog::reset_for_testing();
  std::atomic<int> entered{0};
  std::atomic<int> release{0};
  std::thread parked([&] {
    Norec::atomically([&](auto&) {
      entered.store(1, std::memory_order_release);
      entered.notify_all();
      release.wait(0);
    });
  });
  while (entered.load(std::memory_order_acquire) == 0) entered.wait(0);
  const std::uint64_t t0 = 1;
  const Watchdog::Report armed = Watchdog::check(t0);
  const Watchdog::Report tripped =
      Watchdog::check(t0 + Watchdog::threshold_ns() + 1);
  release.store(1, std::memory_order_release);
  release.notify_all();
  parked.join();
  EXPECT_EQ(armed.active_threads, 1);
  EXPECT_EQ(armed.stalled_threads, 0);
  EXPECT_EQ(tripped.active_threads, 1);
  EXPECT_EQ(tripped.stalled_threads, 1);
  EXPECT_GT(tripped.max_stall_ns, Watchdog::threshold_ns());
  EXPECT_EQ(Watchdog::stall_events(), 1u);
  // The transaction committed and deactivated: nothing is parked now.
  const Watchdog::Report after =
      Watchdog::check(t0 + 3 * Watchdog::threshold_ns());
  EXPECT_EQ(after.active_threads, 0);
  EXPECT_EQ(after.stalled_threads, 0);
}

// Causal attribution end to end: a zipfian YCSB-A cell on a frozen
// single-shard, single-bucket table with window 4, so every op walks one
// long chain through many handovers and overwrites revoke positions that
// concurrent readers have parked. Every reservation loss lands in exactly
// one aborter bucket and one site bucket, so both sums equal res_lost
// exactly; the heatmap names a hot cell; and the snapshot document
// carries the tm section (with the cell's own loss count), a non-empty
// kv_heatmap and the watchdog section.
TEST(KvAttribution, ContendedCellBucketsSumExactlyToLosses) {
  using Store = hohtm::kv::Store<Norec, hohtm::rr::RrV<Norec>>;
  hohtm::kv::KvWorkloadConfig config;
  config.mix = hohtm::kv::Mix::kA;
  config.records = 256;
  config.threads = 4;
  config.ops_per_thread = 4000;
  config.trials = 1;
  // On a many-core host every cell loses reservations; with one core a
  // loss needs a preemption mid-window, and about one cell in four sees
  // none. The sums must hold on every cell; the test needs one with
  // losses in it, and stops at the first.
  std::uint64_t losses = 0;
  for (int attempt = 0; attempt < 8 && losses == 0; ++attempt) {
    ContentionMap::reset();
    const hohtm::harness::CellResult cell =
        hohtm::kv::run_kv_cell(config, [] {
          Store::Options opt;
          opt.log2_shards = 0;
          opt.log2_buckets = 0;
          opt.max_log2_buckets = opt.log2_buckets;
          opt.window = 4;
          return std::make_unique<Store>(opt);
        });
    const auto& c = cell.counters;
    losses = c.reservation_losses;
    EXPECT_EQ(c.attributed_losses() + c.unknown_losses(), losses);
    std::uint64_t site_sum = 0;
    for (std::size_t i = 0; i < hohtm::tm::kRevokeSiteCount; ++i)
      site_sum += c.loss_by_site[i];
    EXPECT_EQ(site_sum, losses);
  }
  ASSERT_GT(losses, 0u) << "no cell lost a reservation: no adversary";

  const auto hot = ContentionMap::top(1);
  ASSERT_EQ(hot.size(), 1u) << "heatmap is empty";
  EXPECT_GT(hot[0].weight, 0u);

  const std::string doc = hohtm::harness::metrics_snapshot_json();
  for (const char* section : {"\"tm\": {", "\"kv_heatmap\": [{",
                              "\"watchdog\": {"})
    EXPECT_NE(doc.find(section), std::string::npos) << section << "\n" << doc;
  EXPECT_NE(doc.find("\"res_lost\":" + std::to_string(losses)),
            std::string::npos)
      << doc;
}

}  // namespace
