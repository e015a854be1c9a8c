#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hohtm::harness {

/// Parameters of one microbenchmark cell, mirroring the paper's setup
/// (Section 5): a key range of 2^key_bits, a structure pre-populated to
/// 50% of the range, then ops_per_thread operations per thread with the
/// given lookup percentage (the rest split evenly between inserts and
/// removes).
struct WorkloadConfig {
  int key_bits = 10;
  int lookup_pct = 33;
  int threads = 2;
  std::uint64_t ops_per_thread = 50000;
  int window = 16;
  int trials = 1;
  std::uint64_t seed = 42;
  /// Footprint-timeline sampling cadence in milliseconds; 0 (default)
  /// disables the sampler thread entirely (see run_timed).
  int footprint_ms = 0;

  long key_range() const noexcept { return 1L << key_bits; }
};

/// Environment-driven scaling so the same binaries serve quick CI runs
/// and full paper-scale reproductions:
///   HOH_BENCH_OPS      ops per thread          (default 20000; paper 1M)
///   HOH_BENCH_TRIALS   trials per cell         (default 2; paper used 5)
///   HOH_BENCH_THREADS  comma list, e.g. 1,2,4,8
///   HOH_BENCH_BIGBITS  "large" tree key bits   (default 16; paper 21)
///   HOH_BENCH_FOOTPRINT_MS  live-object sampling cadence for the
///                      footprint timeline (default 0 = off)
struct BenchEnv {
  std::uint64_t ops_per_thread = 20000;
  int trials = 2;
  std::vector<int> thread_counts{1, 2, 4, 8};
  int big_key_bits = 16;
  int footprint_ms = 0;

  static BenchEnv from_environment();
};

/// Deterministic prefill key sequence: a pseudo-random permutation of the
/// key range, of which the caller inserts the first half (50% fill).
std::vector<long> prefill_keys(const WorkloadConfig& config);

}  // namespace hohtm::harness
