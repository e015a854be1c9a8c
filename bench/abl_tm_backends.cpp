// Ablation A2 — choice of TM backend.
//
// The paper ran on Intel TSX; this reproduction substitutes four software
// TMs (DESIGN.md Section 1.4). This bench quantifies how much of the data
// structure results depends on that substitution: the singly-linked-list
// workload (10-bit keys, 33% lookups, RR-V) under each backend.
//
// Expected shape: GLock flat-lines (serial); TML scales for read-heavy
// mixes only (single writer).
//
// Measured (4-vCPU VM, 50k ops per thread, three alternating runs each,
// min-max Mops), before -> after RR-V's cells became owner-private
// (tm::PrivateCell), which lets a window that only moves its reservation
// commit as a reader instead of taking the commit seqlock or clock:
//
//   10bit-33pct     1 thread      2 threads     4 threads
//   norec  before   0.128-0.134   0.112-0.136   0.106-0.123
//          after    0.105-0.146   0.197-0.235   0.341-0.406
//   tl2    before   0.143-0.190   0.168-0.224   0.251-0.301
//          after    0.125-0.194   0.204-0.248   0.403-0.526
//   10bit-80pct
//   norec  before   0.114-0.142   0.115-0.129   0.113-0.127
//          after    0.114-0.154   0.227-0.243   0.429-0.489
//   tl2    before   0.118-0.208   0.173-0.241   0.326-0.367
//          after    0.157-0.213   0.268-0.368   0.477-0.645
//
// Before, NOrec got no faster with threads: every window was a writer
// commit. After, NOrec and TL2 both scale 1 -> 4 threads; TL2 stays
// ahead at 4, by ~1.2x instead of ~2.4x. Which backend the figure
// benches should default to is still open.
#include <memory>

#include "bench_common.hpp"
#include "ds/sll_hoh.hpp"

namespace {

using hohtm::bench::run_series;
using hohtm::harness::BenchEnv;
using hohtm::harness::WorkloadConfig;
namespace ds = hohtm::ds;
namespace rr = hohtm::rr;
namespace tm = hohtm::tm;

template <class TM>
void backend_series(const BenchEnv& env, int lookup_pct) {
  const std::string panel = "10bit-" + std::to_string(lookup_pct) + "pct";
  WorkloadConfig base;
  base.key_bits = 10;
  base.lookup_pct = lookup_pct;
  run_series("ablA2", panel, TM::name(), base, env,
             [](const WorkloadConfig& c) {
               using List = ds::SllHoh<TM, rr::RrV<TM>>;
               return std::make_unique<List>(c.window);
             });
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::from_environment();
  hohtm::harness::emit_header(
      "ablA2",
      "TM backend ablation: singly list, RR-V, 10-bit keys; backends "
      "glock/tml/norec/tl2/tleager (tleager = encounter-time conflicts, "
      "the closest software analog of HTM's immediate aborts)");
  for (int lookup_pct : {33, 80}) {
    backend_series<tm::GLock>(env, lookup_pct);
    backend_series<tm::Tml>(env, lookup_pct);
    backend_series<tm::Norec>(env, lookup_pct);
    backend_series<tm::Tl2>(env, lookup_pct);
    backend_series<tm::TlEager>(env, lookup_pct);
  }
  return 0;
}
