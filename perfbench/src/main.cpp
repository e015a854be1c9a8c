// The repository benchmark (perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <dir>]
//   perfbench --self-test
//
// --trace 0 prints every end-to-end metric; --trace 1 prints every
// per-layer metric, a "where the time went" table, and writes the traced
// run's spans to <dir>/<workload>-seed<n>.jsonl. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is nonzero when any output check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "alloc/pool.hpp"
#include "bench.hpp"
#include "inproc.hpp"
#include "served.hpp"

namespace perfbench {
namespace {

using RrV = hohtm::rr::RrV<TM>;
using TracedRr = TimedRr<TM>;

// Round sizes put one timed phase near half a second on a 4-core box, so
// a run holds many set-ups: run-to-run spread comes mostly from how one
// set-up lands in memory and on the cores, not from within a phase.
const ServedSpec kServed[] = {
    {"serve-rw-d1", 4096, 50, 2, 1, 2, 24000},
    {"serve-read-d16", 1000000, 95, 4, 16, 2, 192000},
};
const InprocSpec kInproc[] = {
    {"store-scan-insert", false, 100000, 3, 100000},
    {"list-hoh", true, 1024, 3, 20000},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench-traces";
  bool self_test = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

using RoundFn = std::function<Round()>;

/// Untraced rounds until `budget_s` has passed, at least `min_rounds`;
/// stops early on a failed round.
std::vector<Round> run_rounds(const RoundFn& round, double budget_s,
                              std::size_t min_rounds) {
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  std::vector<Round> rounds;
  std::int64_t last_ns = 0;
  while (rounds.size() < min_rounds ||
         (now_ns() - start + last_ns <= budget_ns && rounds.size() < 64)) {
    const std::int64_t t0 = now_ns();
    rounds.push_back(round());
    last_ns = now_ns() - t0;
    Round& r = rounds.back();
    r.summarize();
    std::printf(
        "# round %zu: %.0f ops/s  p50 %.2f us  p99 %.2f us  setup %.3f s  "
        "footprint %.5f/key\n",
        rounds.size(), r.summary.throughput, r.summary.p50_ns * 1e-3,
        r.summary.p99_ns * 1e-3, r.setup_s, r.footprint_per_key);
    if (r.failed > 0) break;
  }
  return rounds;
}

template <class F>
std::vector<double> per_round(const std::vector<Round>& rounds, F&& f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return v;
}

/// Median over rounds of a summary field, with its sample count.
struct RoundMedian {
  double value = 0.0;
  std::string note;
};
RoundMedian round_median(const std::vector<Round>& rounds,
                         double Summary::*field, std::size_t Summary::*samples) {
  std::vector<double> v;
  std::size_t n = 0;
  for (const Round& r : rounds) {
    v.push_back(r.summary.*field);
    n += r.summary.*samples;
  }
  return {median(v), "median of " + std::to_string(v.size()) + " rounds, " +
                         std::to_string(n) + " samples"};
}

/// The bounded tail is p90: on a shared 4-vCPU VM the per-run p99 moved
/// by 13-38% between runs of the same code (host preemption of one of
/// four busy threads), p90 by about 6%. p99 is printed unbounded.
std::vector<Metric> end_to_end(const std::vector<Round>& rounds) {
  const std::string per = "median of " + std::to_string(rounds.size()) + " rounds";
  const RoundMedian tput =
      round_median(rounds, &Summary::throughput, &Summary::samples);
  const RoundMedian p50 = round_median(rounds, &Summary::p50_ns, &Summary::samples);
  const RoundMedian p90 = round_median(rounds, &Summary::p90_ns, &Summary::samples);
  const RoundMedian wp90 =
      round_median(rounds, &Summary::write_p90_ns, &Summary::write_samples);
  const RoundMedian p99 = round_median(rounds, &Summary::p99_ns, &Summary::samples);
  const RoundMedian wp99 =
      round_median(rounds, &Summary::write_p99_ns, &Summary::write_samples);
  std::printf("# lat_p99_us %.3f us, write_lat_p99_us %.3f us (unbounded; %s)\n",
              p99.value * 1e-3, wp99.value * 1e-3, p99.note.c_str());
  return {
      {"throughput_ops_s", tput.value, "ops/s", tput.note},
      {"lat_p50_us", p50.value * 1e-3, "us", p50.note},
      {"lat_p90_us", p90.value * 1e-3, "us", p90.note},
      {"write_lat_p90_us", wp90.value * 1e-3, "us", wp90.note},
      {"setup_s",
       median(per_round(rounds, [](const Round& r) { return r.setup_s; })), "s",
       per},
      {"footprint_per_key",
       median(per_round(rounds,
                        [](const Round& r) { return r.footprint_per_key; })),
       "obj/key", per},
      {"peak_rss_mb", peak_rss_mb(), "MB", "getrusage max RSS"},
  };
}

// ---- Traced run ----

struct TraceResult {
  double net_self_us = 0.0;
  double svc_self_us = 0.0;
  double store_op_us = 0.0;
  double ds_op_us = 0.0;
  double rr_call_ns = 0.0;
  double overhead_frac = 0.0;
  std::vector<std::string> table;  // "where the time went"
  std::vector<Span> spans;
};

/// Duration of each request's span named `name`, indexed by request id.
std::vector<std::int64_t> by_request(const std::vector<Span>& spans,
                                     const char* name, std::size_t n_req) {
  std::vector<std::int64_t> d(n_req, 0);
  for (const Span& s : spans)
    if (s.req < n_req && std::strcmp(s.name, name) == 0)
      d[s.req] = s.end_ns - s.start_ns;
  return d;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// One table row; a negative p50 prints as "-" (only the mean is known).
std::string row(const char* layer, double p50_us, double mean_us,
                double total_us) {
  char p50[32] = "         -";
  if (p50_us >= 0) std::snprintf(p50, sizeof p50, "%10.3f", p50_us);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-34s %s %10.3f %7.1f%%", layer, p50, mean_us,
                total_us > 0 ? 100.0 * mean_us / total_us : 0.0);
  return buf;
}

std::string overhead_line(double traced, double untraced) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tracing overhead: traced %.0f ops/s vs untraced %.0f ops/s "
                "(%.1f%% slower)",
                traced, untraced, 100.0 * (1.0 - traced / untraced));
  return buf;
}

/// Replays the stream through the wire, into Service::submit, and into
/// Store::run_batch, then matches the three spans of each request.
TraceResult trace_served(const ServedSpec& s, const std::vector<Op>& ops,
                         double untraced_tput, Round& checks) {
  const std::size_t n = ops.size();
  const std::size_t n_req = n / static_cast<std::size_t>(s.depth);
  TraceResult tr;
  std::vector<Span> wire, svc, store;
  RrHist hist;
  const Round wr = served_round<TracedRr>(s, ops, n, Hooks{}, &wire);
  const double traced_tput = wr.throughput();
  checks.absorb_checks(wr);
  service_replay<TracedRr>(s, ops, n, svc, checks);
  store_replay<TracedRr>(s, ops, n, store, hist, checks);
  checks.attempted += 2 * n;

  const auto net = by_request(wire, "net.batch", n_req);
  const auto sv = by_request(svc, "kv.service.batch", n_req);
  const auto st = by_request(store, "kv.store.batch", n_req);
  std::vector<double> net_total, net_self, svc_self, store_op, store_req;
  for (std::size_t q = 0; q < n_req; ++q) {
    net_total.push_back(static_cast<double>(net[q]) * 1e-3);
    net_self.push_back(static_cast<double>(net[q] - sv[q]) * 1e-3);
    svc_self.push_back(static_cast<double>(sv[q] - st[q]) * 1e-3);
    store_req.push_back(static_cast<double>(st[q]) * 1e-3);
    store_op.push_back(static_cast<double>(st[q]) * 1e-3 / s.depth);
  }
  const double rr_req_us =
      static_cast<double>(hist.all_ns()) * 1e-3 / static_cast<double>(n_req);
  tr.net_self_us = median(net_self);
  tr.svc_self_us = median(svc_self);
  tr.store_op_us = median(store_op);
  tr.rr_call_ns = hist.p50_reserve_get_revoke();
  tr.overhead_frac = 1.0 - traced_tput / untraced_tput;

  const double total = mean(net_total);
  tr.table.push_back("per request (" + std::to_string(s.conns) + " conns x depth " +
                     std::to_string(s.depth) + "), " + std::to_string(n_req) +
                     " requests matched by id");
  tr.table.push_back("layer                                  p50_us    mean_us   share");
  tr.table.push_back(row("net (net.batch - kv.service.batch)", tr.net_self_us,
                         mean(net_self), total));
  tr.table.push_back(row("kv.service (- kv.store.batch)", tr.svc_self_us,
                         mean(svc_self), total));
  tr.table.push_back(row("kv.store (self, excl. core.rr)", -1.0,
                         mean(store_req) - rr_req_us, total));
  tr.table.push_back(row("core.rr (sum of calls)", -1.0, rr_req_us, total));
  tr.table.push_back(row("net.batch (whole request)", median(net_total), total,
                         total));
  tr.table.push_back(overhead_line(traced_tput, untraced_tput));
  for (auto* v : {&wire, &svc, &store})
    tr.spans.insert(tr.spans.end(), v->begin(), v->end());
  return tr;
}

/// One traced round of an in-process workload: op spans with core.rr.*
/// children on sampled ops, every RR call timed.
template <class RoundOf>
TraceResult trace_inproc(const InprocSpec& s, double untraced_tput,
                         Round& checks, RoundOf&& round_of) {
  std::vector<GenOut> outs(static_cast<std::size_t>(s.threads));
  const Round r = round_of(outs);
  checks.absorb_checks(r);
  RrHist hist;
  TraceResult tr;
  for (const GenOut& o : outs) {
    hist.merge(*o.hist);
    tr.spans.insert(tr.spans.end(), o.spans.begin(), o.spans.end());
  }
  const double op_p50_us = quantile(r.lat_ns, 0.5) * 1e-3;
  (s.list ? tr.ds_op_us : tr.store_op_us) = op_p50_us;
  tr.rr_call_ns = hist.p50_reserve_get_revoke();
  tr.overhead_frac = 1.0 - r.throughput() / untraced_tput;
  const double op_mean =
      std::accumulate(r.lat_ns.begin(), r.lat_ns.end(), 0.0) * 1e-3 /
      static_cast<double>(r.ops);
  const double rr_op_us =
      static_cast<double>(hist.all_ns()) * 1e-3 / static_cast<double>(r.ops);
  tr.table.push_back("per op, " + std::to_string(r.ops) + " ops on " +
                     std::to_string(s.threads) + " threads");
  tr.table.push_back("layer                                  p50_us    mean_us   share");
  tr.table.push_back(row(s.list ? "ds (self, excl. core.rr)"
                                : "kv.store (self, excl. core.rr)",
                         -1.0, op_mean - rr_op_us, op_mean));
  tr.table.push_back(row("core.rr (sum of calls)", -1.0, rr_op_us, op_mean));
  tr.table.push_back(row(s.list ? "ds.list.* (whole op)" : "kv.store.* (whole op)",
                         op_p50_us, op_mean, op_mean));
  tr.table.push_back(overhead_line(r.throughput(), untraced_tput));
  return tr;
}

std::vector<Metric> per_layer(const std::vector<Round>& rounds,
                              const TraceResult& tr) {
  Counts sum;
  double ops = 0.0;
  for (const Round& r : rounds) {
    accumulate(sum, r.counts);
    ops += static_cast<double>(r.ops);
  }
  const auto get = [&](const char* k) {
    auto it = sum.find(k);
    return it == sum.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto per_op = [&](const char* k) { return ops > 0 ? get(k) / ops : 0.0; };
  const auto ratio = [&](const char* a, const char* b) {
    return get(b) > 0 ? get(a) / get(b) : 0.0;
  };
  // A count is flagged when it differed between rounds of the same input.
  const auto flag = [&](std::initializer_list<const char*> keys) {
    std::string note;
    for (const char* k : keys) {
      std::int64_t lo = 0, hi = 0;
      bool first = true;
      for (const Round& r : rounds) {
        auto it = r.counts.find(k);
        const std::int64_t v = it == r.counts.end() ? 0 : it->second;
        lo = first ? v : std::min(lo, v);
        hi = first ? v : std::max(hi, v);
        first = false;
      }
      if (lo != hi)
        note += std::string(note.empty() ? "" : "; ") + "INEXACT " + k + " " +
                std::to_string(lo) + ".." + std::to_string(hi);
    }
    return note;
  };
  std::int64_t backlog = 0;
  for (const Round& r : rounds) {
    auto it = r.counts.find("reclaim.backlog_end");
    if (it != r.counts.end() && std::llabs(it->second) > std::llabs(backlog))
      backlog = it->second;
  }
  const double n_rounds = static_cast<double>(rounds.size());
  const std::string traced = "traced run";
  return {
      {"net.self_us_p50", tr.net_self_us, "us", traced},
      {"net.batches_per_op", per_op("net.batches"), "1/op", flag({"net.batches"})},
      {"net.bytes_per_op", per_op("net.bytes"), "B/op", flag({"net.bytes"})},
      {"svc.self_us_p50", tr.svc_self_us, "us", traced},
      {"store.op_us_p50", tr.store_op_us, "us", traced},
      {"store.fused_op_frac", per_op("net.fused_ops"), "frac",
       flag({"net.fused_ops"})},
      {"store.txs_per_batch", ratio("net.batch_txs", "net.batches"), "1/batch",
       flag({"net.batch_txs"})},
      {"store.scan_windows_per_scan", ratio("store.scan_windows", "store.scans"),
       "1/scan", flag({"store.scan_windows", "store.scans"})},
      {"store.scan_resumes_per_scan", ratio("store.scan_resumes", "store.scans"),
       "1/scan", flag({"store.scan_resumes"})},
      {"store.migrations_per_kop", ops > 0 ? 1000.0 * get("store.migrations") / ops : 0.0,
       "1/kop", flag({"store.migrations"})},
      {"store.resizes", get("store.resizes") / n_rounds, "count",
       flag({"store.resizes"})},
      {"ds.op_us_p50", tr.ds_op_us, "us", traced},
      {"tm.commits_per_op", per_op("tm.commits"), "1/op", flag({"tm.commits"})},
      {"tm.qwaits_per_op", per_op("tm.qwaits"), "1/op", flag({"tm.qwaits"})},
      {"tm.abort_frac",
       get("tm.commits") + get("tm.aborts") > 0
           ? get("tm.aborts") / (get("tm.commits") + get("tm.aborts"))
           : 0.0,
       "frac", flag({"tm.aborts"})},
      {"tm.serial_per_op", per_op("tm.serial"), "1/op", flag({"tm.serial"})},
      {"tm.fused_windows_per_op", per_op("tm.fused_windows"), "1/op",
       flag({"tm.fused_windows"})},
      {"tm.fusion_fallbacks_per_op", per_op("tm.fusion_fallbacks"), "1/op",
       flag({"tm.fusion_fallbacks"})},
      {"rr.revocations_per_op", per_op("rr.revocations"), "1/op",
       flag({"rr.revocations"})},
      {"rr.losses_per_op", per_op("rr.losses"), "1/op", flag({"rr.losses"})},
      {"rr.hoh_retries_per_op", per_op("rr.hoh_retries"), "1/op",
       flag({"rr.hoh_retries"})},
      {"rr.call_ns_p50", tr.rr_call_ns, "ns", traced},
      {"reclaim.backlog_end", static_cast<double>(backlog), "count",
       flag({"reclaim.backlog_end"})},
      {"reclaim.watchdog_stalls", get("reclaim.stalls"), "count",
       flag({"reclaim.stalls"})},
      {"trace.overhead_frac", tr.overhead_frac, "frac", traced},
  };
}

void write_spans(const std::string& dir, const std::string& workload,
                 std::uint64_t seed, const std::vector<Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      dir + "/" + workload + "-seed" + std::to_string(seed) + ".jsonl";
  std::ofstream out(path);
  if (!out) {
    std::printf("# spans: could not open %s\n", path.c_str());
    return;
  }
  std::size_t n = 0;
  for (const Span& s : spans) {
    if (!sampled(s.req) && s.parent != 0) continue;
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"req\":" << s.req
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    ++n;
  }
  std::printf("# spans: %zu written to %s (requests with id %% %llu == 0)\n", n,
              path.c_str(), static_cast<unsigned long long>(kSpanSample));
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("# %-28s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

int run(const Args& a) {
  const ServedSpec* served = nullptr;
  const InprocSpec* inproc = nullptr;
  for (const ServedSpec& s : kServed)
    if (a.workload == s.name) served = &s;
  for (const InprocSpec& s : kInproc)
    if (a.workload == s.name) inproc = &s;
  if (served == nullptr && inproc == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::printf("# perfbench %s seed %llu: NOrec + %s, window 16, alloc %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              RrV::name(), hohtm::alloc::backend_name());

  // Inputs come from the seed alone; every round replays the same ones.
  std::vector<Op> ops;
  std::vector<std::vector<Op>> streams;
  std::vector<long> prefill;
  RoundFn round;
  if (served != nullptr) {
    ops = served_stream(*served, a.seed);
    round = [&] {
      return served_round<RrV>(*served, ops, ops.size(), Hooks{}, nullptr);
    };
  } else {
    streams = inproc_streams(*inproc, a.seed);
    prefill = list_prefill(*inproc, a.seed);
    round = [&] {
      std::vector<GenOut> outs(static_cast<std::size_t>(inproc->threads));
      return inproc->list
                 ? list_round<RrV>(*inproc, prefill, streams,
                                   inproc->ops_per_thread, Hooks{}, outs, false)
                 : store_round<RrV>(*inproc, streams, inproc->ops_per_thread,
                                    Hooks{}, outs, false);
    };
  }

  const std::vector<Round> rounds =
      run_rounds(round, a.trace ? a.seconds / 2 : a.seconds, a.trace ? 2 : 3);
  Round checks;
  for (const Round& r : rounds) checks.absorb_checks(r);

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = end_to_end(rounds);
  } else if (checks.failed == 0) {
    const double untraced =
        round_median(rounds, &Summary::throughput, &Summary::samples).value;
    TraceResult tr;
    if (served != nullptr) {
      tr = trace_served(*served, ops, untraced, checks);
    } else {
      const std::size_t n = inproc->ops_per_thread;
      tr = trace_inproc(*inproc, untraced, checks, [&](std::vector<GenOut>& outs) {
        return inproc->list
                   ? list_round<TracedRr>(*inproc, prefill, streams, n, Hooks{},
                                          outs, true)
                   : store_round<TracedRr>(*inproc, streams, n, Hooks{}, outs,
                                           true);
      });
    }
    std::printf("# where the time went: %s, %s\n", a.workload.c_str(),
                tr.table.front().c_str());
    for (std::size_t i = 1; i < tr.table.size(); ++i)
      std::printf("#   %s\n", tr.table[i].c_str());
    write_spans(a.trace_out, a.workload, a.seed, tr.spans);
    metrics = per_layer(rounds, tr);
  }
  std::printf("# error_frac %.6g (%llu failed of %llu attempted)\n",
              checks.attempted > 0 ? static_cast<double>(checks.failed) /
                                         static_cast<double>(checks.attempted)
                                   : 0.0,
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  for (const std::string& e : checks.errors)
    std::printf("# FAILED CHECK: %s\n", e.c_str());
  const bool correct = checks.failed == 0;
  print_result(correct, std::max<std::uint64_t>(checks.attempted, 1),
               checks.failed, metrics);
  return correct ? 0 : 1;
}

// ---- Clock self-test ----

bool expect(const char* what, bool ok, const Round& r) {
  std::printf("%s: %s (measured %.3f ms, generator busy %.3f ms, max busy "
              "%.3f ms, %llu failed)\n",
              ok && r.failed == 0 ? "PASS" : "FAIL", what,
              static_cast<double>(r.end_ns - r.start_ns) * 1e-6,
              static_cast<double>(r.busy_ns) * 1e-6,
              static_cast<double>(r.max_busy_ns) * 1e-6,
              static_cast<unsigned long long>(r.failed));
  return ok && r.failed == 0;
}

/// The measured duration must grow by at least a delay injected into a
/// generator before its first op, and must still cover the generators'
/// work when the coordinating thread is the one delayed (the failure mode
/// of a clock stamped by a thread other than the generators).
int self_test() {
  constexpr int kDelayMs = 40;
  constexpr std::int64_t kDelayNs = kDelayMs * 1000000LL;
  bool ok = true;
  const InprocSpec list{"self-test-list", true, 1024, 3, 4000};
  const auto streams = inproc_streams(list, 7);
  const auto prefill = list_prefill(list, 7);
  {
    std::vector<GenOut> outs(3);
    const Round r = list_round<RrV>(list, prefill, streams, 4000,
                                    Hooks{kDelayMs, 0}, outs, false);
    // Generator 0's own span must hold the delay and its work; the other
    // generators start on time, so the round's span alone cannot tell.
    const GenOut& g = outs[0];
    ok &= expect("in-process: generator delay counted",
                 g.end_ns - g.start_ns >= kDelayNs + g.busy_ns, r);
  }
  {
    std::vector<GenOut> outs(3);
    const Round r = list_round<RrV>(list, prefill, streams, 4000,
                                    Hooks{0, kDelayMs}, outs, false);
    ok &= expect("in-process: coordinator delay does not hide work",
                 r.end_ns - r.start_ns >= r.max_busy_ns, r);
  }
  {
    const ServedSpec served{"self-test-served", 512, 50, 2, 1, 2, 2000};
    const auto ops = served_stream(served, 7);
    const Round r =
        served_round<RrV>(served, ops, ops.size(), Hooks{kDelayMs, 0}, nullptr);
    ok &= expect("served: generator delay counted",
                 r.end_ns - r.start_ns >= kDelayNs + r.busy_ns, r);
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve-rw-d1|serve-read-d16|"
               "store-scan-insert|list-hoh> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <dir>]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return perfbench::usage();
    const char* v = argv[++i];
    if (flag == "--workload")
      a.workload = v;
    else if (flag == "--seed")
      a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds")
      a.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace")
      a.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--trace-out")
      a.trace_out = v;
    else
      return perfbench::usage();
  }
  if (a.self_test) return perfbench::self_test();
  if (a.workload.empty()) return perfbench::usage();
  return perfbench::run(a);
}
