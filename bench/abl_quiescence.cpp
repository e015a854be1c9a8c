// Ablation A3 — the cost of precision.
//
// The quiescence fence is what lets this library free memory at commit
// (DESIGN.md Section 3). This bench measures it two ways:
//
//  1. commit latency of a remove-heavy list workload (every remove pays
//     one quiescence wait) vs an insert/lookup-only workload (none), and
//  2. the live-memory gauge over a churn phase for precise (RR-V) vs
//     deferred (TMHP, threshold 64) reclamation — the backlog the paper's
//     mechanism eliminates.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "ds/sll_hoh.hpp"
#include "ds/sll_tmhp.hpp"
#include "reclaim/gauge.hpp"

namespace {

using hohtm::bench::run_series;
using hohtm::harness::BenchEnv;
using hohtm::harness::WorkloadConfig;
using TM = hohtm::tm::Norec;
namespace ds = hohtm::ds;
namespace rr = hohtm::rr;

void throughput_vs_free_rate(const BenchEnv& env) {
  // lookup_pct sweeps the fraction of commits that carry deferred frees:
  // 0% lookups => ~50% of ops are removes (max quiescence traffic).
  for (int lookup_pct : {0, 50, 98}) {
    const std::string panel = "freerate-" + std::to_string(lookup_pct) + "pct";
    WorkloadConfig base;
    base.key_bits = 10;
    base.lookup_pct = lookup_pct;
    run_series("ablA3", panel, "RR-V-precise", base, env,
               [](const WorkloadConfig& c) {
                 using List = ds::SllHoh<TM, rr::RrV<TM>>;
                 return std::make_unique<List>(c.window);
               });
    run_series("ablA3", panel, "TMHP-deferred", base, env,
               [](const WorkloadConfig& c) {
                 return std::make_unique<ds::SllTmhp<TM>>(c.window, true, 64);
               });
  }
}

void backlog_comparison() {
  // Churn a list and sample the live-object gauge: precise reclamation
  // tracks the logical size; deferred reclamation rides above it.
  constexpr int kChurn = 20000;
  constexpr long kRange = 256;

  std::printf("# ablA3 backlog: live objects after churn (logical size %ld)\n",
              kRange / 2);
  // Six-column rows, the live-object backlog in the mops column: name
  // them, since the throughput rows above carry the full cell header.
  std::printf("# columns: figure,panel,series,threads,mops,cv_pct\n");
  {
    ds::SllHoh<TM, rr::RrV<TM>> list(8);
    hohtm::util::Xoshiro256 rng(11);
    const auto before = hohtm::reclaim::Gauge::live();
    for (long k = 0; k < kRange; k += 2) list.insert(k);
    for (int i = 0; i < kChurn; ++i) {
      const long key = static_cast<long>(rng.next_below(kRange));
      if (rng.next() & 1)
        list.insert(key);
      else
        list.remove(key);
    }
    std::printf("ablA3,backlog,RR-V,0,%ld,0\n",
                static_cast<long>(hohtm::reclaim::Gauge::live() - before -
                                  static_cast<long>(list.size())));
  }
  {
    ds::SllTmhp<TM> list(8, true, /*scan_threshold=*/256);
    hohtm::util::Xoshiro256 rng(11);
    const auto before = hohtm::reclaim::Gauge::live();
    for (long k = 0; k < kRange; k += 2) list.insert(k);
    for (int i = 0; i < kChurn; ++i) {
      const long key = static_cast<long>(rng.next_below(kRange));
      if (rng.next() & 1)
        list.insert(key);
      else
        list.remove(key);
    }
    std::printf("ablA3,backlog,TMHP,0,%ld,0\n",
                static_cast<long>(hohtm::reclaim::Gauge::live() - before -
                                  static_cast<long>(list.size())));
  }
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::from_environment();
  hohtm::harness::emit_header(
      "ablA3",
      "quiescence/precision ablation: throughput under free-heavy mixes, "
      "plus live-object backlog (precise vs deferred)");
  throughput_vs_free_rate(env);
  backlog_comparison();
  return 0;
}
