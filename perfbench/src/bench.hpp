#pragma once

// Shared pieces of the benchmark: the generator clock, quantiles,
// counter snapshots, seeded op streams, the in-memory span log, and the
// RR-V adapter that times every reservation call in traced runs.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/rr.hpp"
#include "reclaim/gauge.hpp"
#include "reclaim/watchdog.hpp"
#include "tm/tm.hpp"
#include "util/random.hpp"
#include "util/zipfian.hpp"

namespace perfbench {

using TM = hohtm::tm::Norec;
using hohtm::rr::Ref;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <class T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline std::uint64_t hash_value(std::string_view v) {
  return std::hash<std::string_view>{}(v);
}

// ---- Counter snapshots ----

/// Raw per-layer counts by name; a timed phase's counts are the
/// difference of two snapshots taken around it.
using Counts = std::map<std::string, std::int64_t>;

inline Counts operator-(Counts a, const Counts& b) {
  for (const auto& [k, v] : b) a[k] -= v;
  return a;
}

inline void accumulate(Counts& into, const Counts& c) {
  for (const auto& [k, v] : c) into[k] += v;
}

/// The `tm` and `reclaim` layers' public counters.
inline Counts tm_snapshot() {
  using hohtm::tm::AbortCause;
  const hohtm::tm::StatCounters s = hohtm::tm::Stats::total();
  const auto cause = [&](AbortCause c) {
    return static_cast<std::int64_t>(s.by_cause[static_cast<unsigned>(c)]);
  };
  return Counts{
      {"tm.commits", static_cast<std::int64_t>(s.commits)},
      {"tm.aborts", static_cast<std::int64_t>(s.aborts)},
      {"tm.serial", static_cast<std::int64_t>(s.serial_commits)},
      {"tm.qwaits", static_cast<std::int64_t>(s.quiescence_waits)},
      {"tm.fused_windows", static_cast<std::int64_t>(s.fused_windows)},
      {"tm.fusion_fallbacks", cause(AbortCause::kFusionFallback)},
      {"rr.revocations", cause(AbortCause::kRrRevocation)},
      {"rr.hoh_retries", cause(AbortCause::kHohRetry)},
      {"rr.losses", static_cast<std::int64_t>(s.reservation_losses)},
      {"reclaim.stalls",
       static_cast<std::int64_t>(hohtm::reclaim::Watchdog::stall_events())},
  };
}

// ---- Seeded inputs ----

enum class Kind : std::uint8_t { kGet, kPut, kScan, kInsert, kLookup, kRemove };

inline bool is_write(Kind k) {
  return k == Kind::kPut || k == Kind::kInsert || k == Kind::kRemove;
}

struct Op {
  Kind kind = Kind::kGet;
  std::uint32_t len = 0;   // scan length
  std::uint64_t rank = 0;  // key rank (kv) or key (list)
};

inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + salt;
  return hohtm::util::splitmix64(s);
}

/// Kinds in exact proportions: each block holds `count` ops of each kind
/// in a seeded shuffle, so every seed issues the same number of each kind.
inline std::vector<Kind> exact_mix(
    std::size_t n, const std::vector<std::pair<Kind, int>>& per_block,
    hohtm::util::Xoshiro256& rng) {
  std::vector<Kind> block;
  for (const auto& [kind, count] : per_block)
    block.insert(block.end(), static_cast<std::size_t>(count), kind);
  std::vector<Kind> out;
  out.reserve(n + block.size());
  while (out.size() < n) {
    std::shuffle(block.begin(), block.end(), rng);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(n);
  return out;
}

// ---- Tracing ----

/// One timed interval. Spans of one request share `req`; `parent` is the
/// enclosing span's id (0 for a root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

inline std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Reservation call kinds timed by TimedRr.
enum RrCall : int {
  kRrRegister,
  kRrReserve,
  kRrGet,
  kRrRelease,
  kRrRevoke,
  kRrCalls
};
inline constexpr const char* kRrSpanNames[kRrCalls] = {
    "core.rr.register", "core.rr.reserve", "core.rr.get", "core.rr.release",
    "core.rr.revoke"};

/// Per-thread histogram of reservation call durations, 1 ns buckets up to
/// 4 us plus an overflow bucket.
struct RrHist {
  static constexpr std::size_t kBuckets = 4097;
  std::array<std::vector<std::uint64_t>, kRrCalls> counts;
  std::array<std::int64_t, kRrCalls> total_ns{};

  RrHist() {
    for (auto& c : counts) c.assign(kBuckets, 0);
  }
  void add(int call, std::int64_t ns) {
    counts[call][std::min<std::size_t>(static_cast<std::size_t>(ns),
                                       kBuckets - 1)] += 1;
    total_ns[call] += ns;
  }
  void merge(const RrHist& o) {
    for (int c = 0; c < kRrCalls; ++c) {
      for (std::size_t b = 0; b < kBuckets; ++b) counts[c][b] += o.counts[c][b];
      total_ns[c] += o.total_ns[c];
    }
  }
  std::uint64_t calls(int c) const {
    std::uint64_t n = 0;
    for (const std::uint64_t v : counts[c]) n += v;
    return n;
  }
  std::int64_t all_ns() const {
    std::int64_t t = 0;
    for (const std::int64_t v : total_ns) t += v;
    return t;
  }
  /// Median over reserve, get and revoke calls together.
  double p50_reserve_get_revoke() const {
    std::uint64_t n = calls(kRrReserve) + calls(kRrGet) + calls(kRrRevoke);
    if (n == 0) return 0.0;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts[kRrReserve][b] + counts[kRrGet][b] + counts[kRrRevoke][b];
      if (2 * seen >= n) return static_cast<double>(b);
    }
    return static_cast<double>(kBuckets - 1);
  }
};

/// Calling thread's tracing context. TimedRr reads it: with `hist` set it
/// times each call; with `spans` set too it records one child span per
/// call under `parent`.
struct TraceCtx {
  RrHist* hist = nullptr;
  std::vector<Span>* spans = nullptr;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
};
inline thread_local TraceCtx tctx;

/// RR-V with every reserve/get/revoke (and register/release) timed when
/// the calling thread has a histogram in its TraceCtx. Untraced runs use
/// rr::RrV directly, so this adapter costs them nothing.
template <class TMT>
class TimedRr {
 public:
  using Inner = hohtm::rr::RrV<TMT>;
  using Tx = typename TMT::Tx;
  static constexpr bool kStrict = Inner::kStrict;
  static constexpr bool kReal = Inner::kReal;
  static constexpr const char* name() noexcept { return Inner::name(); }

  TimedRr() = default;
  TimedRr(const TimedRr&) = delete;
  TimedRr& operator=(const TimedRr&) = delete;

  void register_thread(Tx& tx) {
    timed(kRrRegister, [&] { inner_.register_thread(tx); });
  }
  void reserve(Tx& tx, Ref ref) {
    timed(kRrReserve, [&] { inner_.reserve(tx, ref); });
  }
  void release(Tx& tx) {
    timed(kRrRelease, [&] { inner_.release(tx); });
  }
  Ref get(Tx& tx) {
    Ref out = nullptr;
    timed(kRrGet, [&] { out = inner_.get(tx); });
    return out;
  }
  void revoke(Tx& tx, Ref ref) {
    timed(kRrRevoke, [&] { inner_.revoke(tx, ref); });
  }

 private:
  /// A call that aborts its transaction throws through here and is not
  /// recorded; its retry is.
  template <class F>
  static void timed(int call, F&& f) {
    TraceCtx& ctx = tctx;
    if (ctx.hist == nullptr) {
      f();
      return;
    }
    const std::int64_t t0 = now_ns();
    f();
    const std::int64_t t1 = now_ns();
    ctx.hist->add(call, t1 - t0);
    if (ctx.spans != nullptr)
      ctx.spans->push_back(
          Span{kRrSpanNames[call], next_span_id(), ctx.parent, ctx.req, t0, t1});
  }

  Inner inner_;
};

static_assert(hohtm::rr::Reservation<TimedRr<TM>, TM>);

/// Requests whose spans are written to the trace file (every request's
/// durations feed the statistics; the file keeps one in kSpanSample).
inline constexpr std::uint64_t kSpanSample = 64;

inline bool sampled(std::uint64_t req) { return req % kSpanSample == 0; }

// ---- Results ----

/// Injected delays for the clock self-test (zero in measured runs).
struct Hooks {
  int gen_delay_ms = 0;    // a generator sleeps after its start stamp
  int coord_delay_ms = 0;  // the coordinating thread sleeps after release
};

/// Percentiles and rate of one timed phase, kept after its samples go.
struct Summary {
  double throughput = 0.0;  // ops / (last end stamp - first start stamp)
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
  double write_p90_ns = 0.0;
  double write_p99_ns = 0.0;
  std::size_t samples = 0;
  std::size_t write_samples = 0;
};

/// One set-up, one timed phase of a fixed op count, and the output checks
/// and teardown that follow.
struct Round {
  double setup_s = 0.0;
  std::int64_t start_ns = 0;     // earliest generator start stamp
  std::int64_t end_ns = 0;       // latest generator end stamp
  std::int64_t busy_ns = 0;      // generator 0's time inside its ops
  std::int64_t max_busy_ns = 0;  // largest per-generator time inside ops
  std::uint64_t ops = 0;         // ops completed in the timed phase
  std::vector<std::uint32_t> lat_ns;        // every op
  std::vector<std::uint32_t> write_lat_ns;  // writes only
  Summary summary;               // filled by summarize()
  double footprint_per_key = 0.0;
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  double throughput() const {
    return end_ns > start_ns ? static_cast<double>(ops) / seconds() : 0.0;
  }
  void add_op(std::uint32_t lat, bool write) {
    lat_ns.push_back(lat);
    if (write) write_lat_ns.push_back(lat);
    ++ops;
  }
  /// Keep the phase's percentiles and free its samples, so that a run's
  /// memory does not grow with its round count.
  void summarize() {
    summary = Summary{throughput(),
                      quantile(lat_ns, 0.5),
                      quantile(lat_ns, 0.9),
                      quantile(lat_ns, 0.99),
                      quantile(write_lat_ns, 0.9),
                      quantile(write_lat_ns, 0.99),
                      lat_ns.size(),
                      write_lat_ns.size()};
    std::vector<std::uint32_t>().swap(lat_ns);
    std::vector<std::uint32_t>().swap(write_lat_ns);
  }
  void fail(std::uint64_t n, std::string why) {
    failed += n;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  /// Add another round's op and failure counts to this one's.
  void absorb_checks(const Round& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors)
      if (errors.size() < 8) errors.push_back(e);
  }
};

/// Peak of Gauge::live() over the calling thread's samples, net of a
/// baseline taken before set-up.
struct LivePeak {
  std::int64_t baseline = 0;
  std::int64_t peak = 0;
  void sample() {
    peak = std::max<std::int64_t>(peak, hohtm::reclaim::Gauge::live() - baseline);
  }
};

inline std::uint32_t clamp_ns(std::int64_t ns) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace perfbench
