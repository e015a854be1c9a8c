#pragma once

// In-process workloads: generator threads call kv::Store or ds::SllHoh
// directly, each stamping its own start and end and timing every call.

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ds/sll_hoh.hpp"
#include "served.hpp"

namespace perfbench {

struct InprocSpec {
  const char* name;
  bool list;                     // ds::SllHoh (else kv::Store)
  std::size_t records;           // store prefill, or the list's key range
  int threads;
  std::size_t ops_per_thread;    // timed ops per thread per round
};

template <class RR>
using ListT = hohtm::ds::SllHoh<TM, RR>;

/// Store: 95% scan_from (Zipfian start, uniform length 1..64) and 5%
/// inserts of fresh keys: the ranks just past the prefill, dealt round
/// robin to the threads, so that the store grows through the same table
/// thresholds every round. List: uniform keys over the range, 33% lookups
/// and the rest split evenly between inserts and removes.
inline std::vector<std::vector<Op>> inproc_streams(const InprocSpec& s,
                                                   std::uint64_t seed) {
  std::vector<std::vector<Op>> streams;
  for (int t = 0; t < s.threads; ++t) {
    const auto ut = static_cast<std::uint64_t>(t);
    hohtm::util::Xoshiro256 rng(mix_seed(seed, 10 + ut));
    std::vector<Op> ops(s.ops_per_thread);
    if (s.list) {
      const auto kinds = exact_mix(
          ops.size(),
          {{Kind::kLookup, 66}, {Kind::kInsert, 67}, {Kind::kRemove, 67}}, rng);
      for (std::size_t i = 0; i < ops.size(); ++i)
        ops[i] = Op{kinds[i], 0, rng.next_below(s.records)};
    } else {
      hohtm::util::Zipfian zipf(s.records, 0.99, mix_seed(seed, 20 + ut));
      const auto kinds =
          exact_mix(ops.size(), {{Kind::kScan, 95}, {Kind::kInsert, 5}}, rng);
      std::uint64_t inserts = 0;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (kinds[i] == Kind::kScan)
          ops[i] = Op{Kind::kScan,
                      1 + static_cast<std::uint32_t>(rng.next_below(64)),
                      zipf.next()};
        else
          ops[i] = Op{Kind::kInsert, 0,
                      s.records + ut + inserts++ * static_cast<std::uint64_t>(s.threads)};
      }
    }
    streams.push_back(std::move(ops));
  }
  return streams;
}

/// The list's prefill: a seeded half of the key range.
inline std::vector<long> list_prefill(const InprocSpec& s, std::uint64_t seed) {
  std::vector<long> keys(s.records);
  std::iota(keys.begin(), keys.end(), 0L);
  hohtm::util::Xoshiro256 rng(mix_seed(seed, 30));
  std::shuffle(keys.begin(), keys.end(), rng);
  keys.resize(keys.size() / 2);
  return keys;
}

/// Per-generator results, merged into the Round after the join.
struct GenOut {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::vector<std::uint32_t> lat_ns;
  std::vector<std::uint32_t> write_lat_ns;
  std::int64_t inserted = 0;
  std::int64_t removed = 0;
  Round errs;  // failures only
  LivePeak live;
  std::vector<Span> spans;
  std::unique_ptr<RrHist> hist;  // traced runs only
};

/// Scan visitor checking ascending canonical (hash, key) order with no
/// duplicates.
struct ScanCheck {
  std::uint64_t prev_hash = 0;
  std::string prev_key;
  std::size_t seen = 0;
  bool ordered = true;

  void operator()(std::string_view key, std::string_view) {
    const std::uint64_t h = hohtm::kv::detail::hash_bytes(key);
    if (seen > 0 && !hohtm::kv::detail::precedes(prev_hash, prev_key, h, key))
      ordered = false;
    prev_hash = h;
    prev_key.assign(key.data(), key.size());
    ++seen;
  }
};

/// Run `threads` generators over their streams. Each waits at a start
/// flag, stamps its own start, runs its ops timing each call, and stamps
/// its own end; the phase is max(end) - min(start). `call(t, op, out)`
/// performs one op, records any failed output check in `out`, and
/// returns the op's span name.
template <class Call>
void run_generators(const InprocSpec& s,
                    const std::vector<std::vector<Op>>& streams,
                    std::size_t n_per_thread, const Hooks& hooks,
                    std::vector<GenOut>& outs, bool traced, Call&& call) {
  // Buffers are allocated here, on the calling thread, so that the
  // allocator arenas of the short-lived generator threads hold little and
  // peak RSS stays steady from run to run.
  for (GenOut& o : outs) {
    o.lat_ns.reserve(n_per_thread);
    o.write_lat_ns.reserve(n_per_thread);
    if (traced) o.hist = std::make_unique<RrHist>();
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < s.threads; ++t) {
    threads.emplace_back([&, t] {
      GenOut& o = outs[static_cast<std::size_t>(t)];
      const std::vector<Op>& ops = streams[static_cast<std::size_t>(t)];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      o.start_ns = now_ns();
      if (t == 0 && hooks.gen_delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(hooks.gen_delay_ms));
      for (std::size_t i = 0; i < n_per_thread; ++i) {
        const Op& op = ops[i];
        const std::uint64_t req = (static_cast<std::uint64_t>(t) << 32) | i;
        const std::uint64_t id = traced ? next_span_id() : 0;
        if (traced)
          tctx = TraceCtx{o.hist.get(), sampled(i) ? &o.spans : nullptr, id, req};
        const std::int64_t t0 = now_ns();
        const char* span = call(t, op, o);
        const std::int64_t t1 = now_ns();
        if (traced) {
          tctx = TraceCtx{};
          if (sampled(i)) o.spans.push_back(Span{span, id, 0, req, t0, t1});
        }
        o.busy_ns += t1 - t0;
        o.lat_ns.push_back(clamp_ns(t1 - t0));
        if (is_write(op.kind)) o.write_lat_ns.push_back(clamp_ns(t1 - t0));
        if (t == 0 && i % 256 == 0) o.live.sample();
        if (t == 0 && i % 8192 == 0) hohtm::reclaim::Watchdog::check_now();
      }
      o.end_ns = now_ns();
    });
  }
  go.store(true, std::memory_order_release);
  if (hooks.coord_delay_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(hooks.coord_delay_ms));
  for (std::thread& th : threads) th.join();
}

/// Fold the generators' outputs into the round.
inline void merge_outs(std::vector<GenOut>& outs, Round& r, LivePeak& live) {
  r.start_ns = outs[0].start_ns;
  r.end_ns = outs[0].end_ns;
  r.busy_ns = outs[0].busy_ns;
  for (GenOut& o : outs) {
    r.start_ns = std::min(r.start_ns, o.start_ns);
    r.end_ns = std::max(r.end_ns, o.end_ns);
    r.max_busy_ns = std::max(r.max_busy_ns, o.busy_ns);
    r.ops += o.lat_ns.size();
    r.attempted += o.lat_ns.size();
    r.lat_ns.insert(r.lat_ns.end(), o.lat_ns.begin(), o.lat_ns.end());
    r.write_lat_ns.insert(r.write_lat_ns.end(), o.write_lat_ns.begin(),
                          o.write_lat_ns.end());
    r.failed += o.errs.failed;
    for (std::string& e : o.errs.errors)
      if (r.errors.size() < 8) r.errors.push_back(std::move(e));
  }
  live.peak = std::max(live.peak, outs[0].live.peak);
  live.sample();
}

/// store-scan-insert round: set-up (prefill, finish_migration), the timed
/// phase, output checks, teardown.
template <class RR>
Round store_round(const InprocSpec& s,
                  const std::vector<std::vector<Op>>& streams,
                  std::size_t n_per_thread, const Hooks& hooks,
                  std::vector<GenOut>& outs, bool traced) {
  Round r;
  LivePeak live;
  live.baseline = hohtm::reclaim::Gauge::live();
  const std::int64_t t0 = now_ns();
  auto store = prefilled_store<RR>(s.records);
  r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (GenOut& o : outs) o.live.baseline = live.baseline;

  Counts before = tm_snapshot();
  add_store_counts(before, *store);
  run_generators(s, streams, n_per_thread, hooks, outs, traced,
                 [&](int, const Op& op, GenOut& o) -> const char* {
                   const std::string key = hohtm::kv::make_key(op.rank);
                   if (op.kind == Kind::kScan) {
                     ScanCheck check;
                     const std::size_t n = store->scan_from(
                         key, op.len, [&](const auto& k, const auto& v) {
                           check(k, v);
                         });
                     if (!check.ordered || n != check.seen || n > op.len)
                       o.errs.fail(1, "scan out of canonical order");
                     return "kv.store.scan_from";
                   }
                   if (!store->put(key, hohtm::kv::make_value(op.rank, 0)))
                     o.errs.fail(1, "insert of a fresh key found it present");
                   else
                     ++o.inserted;
                   return "kv.store.put";
                 });
  Counts after = tm_snapshot();
  add_store_counts(after, *store);
  r.counts = after - before;
  merge_outs(outs, r, live);

  std::int64_t inserted = 0;
  for (const GenOut& o : outs) inserted += o.inserted;
  const auto expect = static_cast<std::int64_t>(s.records) + inserted;
  if (static_cast<std::int64_t>(store->size()) != expect)
    r.fail(1, "store size differs from prefill + inserts");
  teardown_store(store, live, r);
  return r;
}

/// list-hoh round: the paper's Figure 2 list under 3 generators.
template <class RR>
Round list_round(const InprocSpec& s, const std::vector<long>& prefill,
                 const std::vector<std::vector<Op>>& streams,
                 std::size_t n_per_thread, const Hooks& hooks,
                 std::vector<GenOut>& outs, bool traced) {
  Round r;
  LivePeak live;
  live.baseline = hohtm::reclaim::Gauge::live();
  const std::int64_t t0 = now_ns();
  auto list = std::make_unique<ListT<RR>>(16);
  for (const long k : prefill) list->insert(k);
  r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (GenOut& o : outs) o.live.baseline = live.baseline;

  const Counts before = tm_snapshot();
  run_generators(s, streams, n_per_thread, hooks, outs, traced,
                 [&](int, const Op& op, GenOut& o) -> const char* {
                   const long key = static_cast<long>(op.rank);
                   switch (op.kind) {
                     case Kind::kInsert:
                       o.inserted += list->insert(key) ? 1 : 0;
                       return "ds.list.insert";
                     case Kind::kRemove:
                       o.removed += list->remove(key) ? 1 : 0;
                       return "ds.list.remove";
                     default:
                       list->contains(key);
                       return "ds.list.contains";
                   }
                 });
  r.counts = tm_snapshot() - before;
  merge_outs(outs, r, live);

  std::int64_t net_inserts = 0;
  for (const GenOut& o : outs) net_inserts += o.inserted - o.removed;
  const auto size = static_cast<std::int64_t>(list->size());
  if (!list->is_sorted()) r.fail(1, "list not strictly sorted");
  if (size != static_cast<std::int64_t>(prefill.size()) + net_inserts)
    r.fail(1, "list size differs from prefill + inserts - removes");
  r.footprint_per_key =
      size > 0 ? static_cast<double>(live.peak) / static_cast<double>(size) : 0.0;
  // One node per element plus the head sentinel.
  const std::int64_t backlog =
      hohtm::reclaim::Gauge::live() - live.baseline - size - 1;
  r.counts["reclaim.backlog_end"] = backlog;
  if (backlog != 0)
    r.fail(1, "reclaim backlog " + std::to_string(backlog) + " at teardown");
  list.reset();
  const std::int64_t leaked = hohtm::reclaim::Gauge::live() - live.baseline;
  if (leaked != 0)
    r.fail(1, std::to_string(leaked) + " objects outlived the list");
  return r;
}

}  // namespace perfbench
