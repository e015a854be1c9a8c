// KV extension — the sharded transactional store under the five YCSB
// mixes (A 50/50, B 95/5, C read-only, D read-latest/insert, E
// scan/insert), one panel per mix, with the single-transaction baseline
// (RrNull, unbounded window) against representative reservation
// algorithms. --workload=X restricts the run to one mix.
//
// Rows carry the standard cell columns plus the KV columns
// (kv::add_kv_columns): kv_hits,kv_misses,kv_migrations,kv_resizes and
// the scan triple kv_scans,kv_scan_windows,kv_scan_resumes, so the resize
// traffic the D mix generates and the cursor handovers the E mix
// exercises are attributable per series.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "kv/workload.hpp"
#include "core/rr.hpp"

namespace {

using hohtm::harness::BenchEnv;
using hohtm::harness::CellResult;
using hohtm::kv::KvWorkloadConfig;
using hohtm::kv::Mix;
using TM = hohtm::tm::Norec;
namespace kv = hohtm::kv;
namespace rr = hohtm::rr;

template <class RR>
std::unique_ptr<kv::Store<TM, RR>> make_store(int window,
                                              int fusion_cap = 0) {
  typename kv::Store<TM, RR>::Options opt;
  opt.window = window;
  opt.fusion_cap = fusion_cap;
  return std::make_unique<kv::Store<TM, RR>>(opt);
}

template <class RR>
void series(const std::string& panel, const char* name,
            KvWorkloadConfig config, const BenchEnv& env, int window,
            int fusion_cap = 0) {
  for (int threads : env.thread_counts) {
    config.threads = threads;
    config.ops_per_thread = env.ops_per_thread;
    config.trials = env.trials;
    config.footprint_ms = env.footprint_ms;
    const CellResult cell = hohtm::kv::run_kv_cell(
        config, [&] { return make_store<RR>(window, fusion_cap); });
    hohtm::harness::emit_row("kv", panel, name, threads, cell);
  }
}

void run_panel(const BenchEnv& env, Mix mix) {
  const std::string panel = kv::mix_name(mix);
  hohtm::harness::emit_panel_note("kv", panel);
  KvWorkloadConfig config;
  config.mix = mix;
  config.records = 2048;

  // Single-transaction baseline: no reservations, unbounded window.
  series<rr::RrNull<TM>>(panel, "HTM", config, env,
                         kv::Store<TM, rr::RrNull<TM>>::kUnbounded);
  series<rr::RrV<TM>>(panel, "RR-V", config, env, 16);
  // Same algorithm with the contention-gated fusion budget: quiet
  // threads merge adjacent windows (fused_windows column), contended
  // ones fall back to the small-window protocol (fusion_fallbacks).
  series<rr::RrV<TM>>(panel, "RR-V+fuse", config, env, 16,
                      /*fusion_cap=*/16);
  series<rr::RrXo<TM>>(panel, "RR-XO", config, env, 16);
  series<rr::RrFa<TM>>(panel, "RR-FA", config, env, 16);
}

}  // namespace

int main(int argc, char** argv) {
  bool have_mix = false;
  Mix only_mix = Mix::kA;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workload=", 11) == 0 &&
        argv[i][11] != '\0' && argv[i][12] == '\0') {
      switch (argv[i][11]) {
        case 'A': only_mix = Mix::kA; break;
        case 'B': only_mix = Mix::kB; break;
        case 'C': only_mix = Mix::kC; break;
        case 'D': only_mix = Mix::kD; break;
        case 'E': only_mix = Mix::kE; break;
        default:
          std::fprintf(stderr, "unknown workload: %s (want A..E)\n", argv[i]);
          return 2;
      }
      have_mix = true;
    } else {
      std::fprintf(stderr, "usage: kv_ycsb [--workload=A..E]\n");
      return 2;
    }
  }
  const BenchEnv env = BenchEnv::from_environment();
  hohtm::harness::emit_header(
      "kv", "sharded KV store: 2048 records, zipfian(0.99); panels = YCSB "
            "A/B/C/D/E mixes");
  if (have_mix) {
    run_panel(env, only_mix);
    return 0;
  }
  for (Mix mix : {Mix::kA, Mix::kB, Mix::kC, Mix::kD, Mix::kE})
    run_panel(env, mix);
  return 0;
}
