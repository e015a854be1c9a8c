// Serving-tier loopback bench (docs/SERVING.md): the full network path —
// client sockets, the pipelined binary protocol, the epoll event loop,
// kv::Service workers, and batch-boundary window fusion — driven by a
// YCSB A–E load generator over real 127.0.0.1 TCP connections. Panels
// are the five mixes; series sweep the client pipeline depth, which is
// the fusion opportunity: every pipeline read becomes one kBatch request
// whose consecutive same-shard ops share a single fused window
// transaction.
//
// Rows carry the standard cell columns, the KV columns
// (kv::add_kv_columns) and net_batches,net_fused_ops,net_bytes_in,
// net_bytes_out. Throughput and every per-op ratio count only the ops
// whose responses came back. The
// telling ratio is commits/op and quiescence_waits/op versus pipeline
// depth: depth 16 should pay ~1 commit and ~1 reclamation fence where
// depth 1 pays 16 of each.
//
// check.sh --net smoke: --smoke runs YCSB A at depth 1 and depth 16 on
// a frozen single-shard store and exits nonzero unless depth 16 shows
// strictly fewer commits per op AND strictly fewer quiescence waits per
// op with nonzero fused ops, unless depth 1 pays at most one commit per
// op (the frozen shard never resizes, so each op is exactly its own
// window transaction), unless every depth-1 batch ran inline on the
// event loop and no depth-16 batch did, and unless every connection
// completed every op it was asked for; then it runs the
// stalled-client scenario: a connection parked mid-pipeline while
// other clients churn node-freeing updates must leave the reclamation
// watchdog with zero alerts and the final footprint Gauge-exact.
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/rr.hpp"
#include "harness/report.hpp"
#include "harness/workload.hpp"
#include "kv/workload.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "reclaim/gauge.hpp"
#include "reclaim/watchdog.hpp"
#include "util/random.hpp"
#include "util/zipfian.hpp"

namespace {

using TM = hohtm::tm::Norec;
using RR = hohtm::rr::RrV<TM>;
using Store = hohtm::kv::Store<TM, RR>;
using Service = hohtm::kv::Service<TM, RR>;
using Server = hohtm::net::Server<TM, RR>;
using hohtm::harness::BenchEnv;
using hohtm::harness::CellResult;
using hohtm::kv::Mix;
namespace kv = hohtm::kv;
namespace net = hohtm::net;

struct NetCellConfig {
  Mix mix = Mix::kA;
  std::size_t records = 2048;
  int connections = 1;          // concurrent client sockets
  std::uint64_t ops_per_conn = 20000;
  int pipeline = 16;            // ops queued per flush on each connection
  int trials = 2;
  int workers = 2;              // kv::Service worker threads
  bool frozen_single_shard = false;  // smoke: maximize fusion opportunity
};

std::unique_ptr<Store> make_store(const NetCellConfig& cfg) {
  Store::Options opt;
  opt.window = 16;
  opt.fusion_cap = 16;
  if (cfg.frozen_single_shard) {
    // One shard, frozen table: every batch is one fuseable run and the
    // commit count is not diluted by migration transactions.
    opt.log2_shards = 0;
    opt.log2_buckets = 6;
    opt.max_log2_buckets = opt.log2_buckets;
  }
  return std::make_unique<Store>(opt);
}

/// What one client connection saw: responses received (its completed
/// ops), split into hits (kOk) and misses.
struct ClientTally {
  std::uint64_t done = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// One client connection's worth of the given mix: queue `pipeline` ops,
/// flush, drain the responses, repeat. Stops early on a failed connect,
/// flush or receive, so `done` may fall short of `ops_per_conn`.
ClientTally run_client(const NetCellConfig& cfg, std::uint16_t port,
                       int conn_id, int trial) {
  ClientTally tally;
  net::Client client;
  if (!client.connect(port)) return tally;
  hohtm::util::Zipfian zipf(
      cfg.records, 0.99,
      0x9e3779b9ULL * static_cast<std::uint64_t>(conn_id + 1) + trial);
  hohtm::util::Xoshiro256 rng(0xc0ffee00ULL + conn_id * 131 + trial);
  std::uint64_t inserted = 0;
  const std::uint64_t insert_base =
      cfg.records + static_cast<std::uint64_t>(conn_id) * cfg.ops_per_conn;
  std::uint64_t& done = tally.done;
  while (done < cfg.ops_per_conn) {
    const std::uint64_t batch =
        std::min<std::uint64_t>(cfg.pipeline, cfg.ops_per_conn - done);
    for (std::uint64_t i = 0; i < batch; ++i) {
      const std::uint64_t dice = rng.next_below(100);
      const std::uint64_t rank = zipf.next();
      switch (cfg.mix) {
        case Mix::kA:
          if (dice < 50)
            client.queue_get(kv::make_key(rank));
          else
            client.queue_put(kv::make_key(rank),
                             kv::make_value(rank, done + i));
          break;
        case Mix::kB:
          if (dice < 95)
            client.queue_get(kv::make_key(rank));
          else
            client.queue_put(kv::make_key(rank),
                             kv::make_value(rank, done + i));
          break;
        case Mix::kC:
          client.queue_get(kv::make_key(rank));
          break;
        case Mix::kD:
          // Read-latest/insert: reads chase this connection's freshest
          // inserts; 5% of ops append a brand-new key.
          if (dice < 95 && inserted > 0) {
            const std::uint64_t back = zipf.next() % inserted;
            client.queue_get(kv::make_key(insert_base + inserted - 1 - back));
          } else {
            client.queue_put(kv::make_key(insert_base + inserted),
                             kv::make_value(insert_base + inserted, 0));
            ++inserted;
          }
          break;
        case Mix::kE:
          if (dice < 95) {
            client.queue_scan(kv::make_key(rank), 16);
          } else {
            client.queue_put(kv::make_key(insert_base + inserted),
                             kv::make_value(insert_base + inserted, 0));
            ++inserted;
          }
          break;
      }
    }
    if (client.flush() == 0) break;
    const std::uint64_t target = done + batch;
    for (; done < target; ++done) {
      net::NetResponse r;
      if (!client.recv(r)) break;
      if (r.status == net::WireStatus::kOk)
        ++tally.hits;
      else
        ++tally.misses;
    }
    if (done < target) break;
  }
  client.close();
  return tally;
}

/// One loopback cell: per trial, a fresh prefilled store behind a
/// Service and a Server, and `connections` clients under
/// harness::run_timed. `loop`, when given, accumulates the event loop's
/// inline batches (a subset of net_batches), parks and polls.
CellResult run_net_cell(const NetCellConfig& cfg,
                        Server::Counters* loop = nullptr) {
  CellResult cell;
  for (int trial = 0; trial < cfg.trials; ++trial) {
    const long long live_baseline = hohtm::reclaim::Gauge::live();
    auto store = make_store(cfg);
    for (std::size_t r = 0; r < cfg.records; ++r)
      store->put(kv::make_key(r), kv::make_value(r, 0));
    store->finish_migration();
    const std::array<std::uint64_t, 5> before = kv::store_counts(*store);
    // Reset telemetry before the service spins up its workers: the cell
    // then measures exactly the socket-driven phase.
    hohtm::tm::Stats::reset();
    hohtm::util::Metrics::reset();
    Service svc(*store, cfg.workers);
    Server server(svc, Server::Options{});
    if (!server.ok()) {
      std::fprintf(stderr, "kv_loopback: failed to bind loopback server\n");
      std::exit(1);
    }

    std::vector<ClientTally> tallies(static_cast<std::size_t>(cfg.connections));
    const hohtm::harness::TimedRun run =
        hohtm::harness::run_timed(cfg.connections, 0, [&](int c) {
          tallies[static_cast<std::size_t>(c)] =
              run_client(cfg, server.port(), c, trial);
        });
    server.stop();
    svc.stop();

    ClientTally sum;
    for (const ClientTally& t : tallies) {
      sum.done += t.done;
      sum.hits += t.hits;
      sum.misses += t.misses;
    }
    kv::add_kv_columns(cell, sum.hits, sum.misses, *store, before);
    const Server::Counters sc = server.counters();
    cell.add("net_batches", sc.batches);
    cell.add("net_fused_ops", sc.fused_ops);
    cell.add("net_bytes_in", sc.bytes_in);
    cell.add("net_bytes_out", sc.bytes_out);
    if (loop != nullptr) {
      loop->inline_batches += sc.inline_batches;
      loop->loop_parks += sc.loop_parks;
      loop->loop_polls += sc.loop_polls;
    }
    cell.add_trial(run, sum.done, live_baseline);
  }
  return cell;
}

void run_panel(const BenchEnv& env, Mix mix) {
  const std::string panel = kv::mix_name(mix);
  hohtm::harness::emit_panel_note("net", panel);
  for (int depth : {1, 4, 16}) {
    const std::string series = "depth-" + std::to_string(depth);
    for (int conns : env.thread_counts) {
      NetCellConfig cfg;
      cfg.mix = mix;
      cfg.connections = conns;
      cfg.ops_per_conn = env.ops_per_thread;
      cfg.pipeline = depth;
      cfg.trials = env.trials;
      hohtm::harness::emit_row("net", panel, series, conns,
                               run_net_cell(cfg));
    }
  }
}

/// The fusion gate: YCSB A over real sockets at pipeline depth 16 must
/// pay strictly fewer commits per op AND strictly fewer quiescence waits
/// per op than depth 1, with nonzero fused ops. On the frozen shard a
/// depth-1 op is exactly one transaction, so depth 1 may pay at most
/// kMaxDepth1Commits per op (the slack covers the cell's few non-op
/// transactions); a per-op probe transaction would read 2.0 or more.
/// The inline rule holds too: every depth-1 batch is one op and runs on
/// the loop thread, and no depth-16 batch does. Event-loop parks and
/// polls per batch are printed, not gated: they follow wall-clock time.
int run_fusion_gate() {
  constexpr double kMaxDepth1Commits = 1.001;
  NetCellConfig cfg;
  cfg.mix = Mix::kA;
  cfg.records = 512;
  cfg.connections = 1;
  cfg.ops_per_conn = 4000;
  cfg.trials = 1;
  cfg.workers = 2;
  cfg.frozen_single_shard = true;

  cfg.pipeline = 1;
  Server::Counters loop1;
  const CellResult d1 = run_net_cell(cfg, &loop1);
  hohtm::harness::emit_row("net", "smoke-A", "depth-1", 1, d1);
  cfg.pipeline = 16;
  Server::Counters loop16;
  const CellResult d16 = run_net_cell(cfg, &loop16);
  hohtm::harness::emit_row("net", "smoke-A", "depth-16", 1, d16);

  // Each connection completes at most what it was asked for, so a cell
  // total below the asked total means some connection fell short.
  const std::uint64_t asked = cfg.ops_per_conn *
                              static_cast<std::uint64_t>(cfg.connections) *
                              static_cast<std::uint64_t>(cfg.trials);
  if (d1.ops != asked || d16.ops != asked) {
    std::fprintf(stderr,
                 "net smoke: a connection completed fewer ops than asked "
                 "(depth 1: %llu of %llu; depth 16: %llu of %llu)\n",
                 static_cast<unsigned long long>(d1.ops),
                 static_cast<unsigned long long>(asked),
                 static_cast<unsigned long long>(d16.ops),
                 static_cast<unsigned long long>(asked));
    return 1;
  }
  const double ops1 = static_cast<double>(d1.ops);
  const double ops16 = static_cast<double>(d16.ops);
  const double commits1 = static_cast<double>(d1.counters.commits) / ops1;
  const double commits16 = static_cast<double>(d16.counters.commits) / ops16;
  const double qwaits1 =
      static_cast<double>(d1.counters.quiescence_waits) / ops1;
  const double qwaits16 =
      static_cast<double>(d16.counters.quiescence_waits) / ops16;
  if (d1.mops.mean <= 0.0 || d16.mops.mean <= 0.0) {
    std::fprintf(stderr, "net smoke: zero throughput\n");
    return 1;
  }
  const std::uint64_t fused16 = d16.column("net_fused_ops");
  const std::uint64_t batches1 = d1.column("net_batches");
  const std::uint64_t batches16 = d16.column("net_batches");
  if (fused16 == 0) {
    std::fprintf(stderr,
                 "net smoke: depth-16 pipeline recorded no fused ops\n");
    return 1;
  }
  const std::uint64_t inline1 = loop1.inline_batches;
  const std::uint64_t inline16 = loop16.inline_batches;
  if (inline1 != batches1 || inline16 != 0) {
    std::fprintf(stderr,
                 "net smoke: inline rule broken (depth 1: %llu of %llu "
                 "batches inline; depth 16: %llu of %llu)\n",
                 static_cast<unsigned long long>(inline1),
                 static_cast<unsigned long long>(batches1),
                 static_cast<unsigned long long>(inline16),
                 static_cast<unsigned long long>(batches16));
    return 1;
  }
  if (commits1 > kMaxDepth1Commits) {
    std::fprintf(stderr,
                 "net smoke: depth-1 commits/op %.3f exceeds %.3f (one "
                 "transaction per op on a settled shard)\n",
                 commits1, kMaxDepth1Commits);
    return 1;
  }
  if (commits16 >= commits1) {
    std::fprintf(stderr,
                 "net smoke: commits/op did not drop with pipeline depth "
                 "(%.3f at depth 16 vs %.3f at depth 1)\n",
                 commits16, commits1);
    return 1;
  }
  if (qwaits16 >= qwaits1) {
    std::fprintf(stderr,
                 "net smoke: quiescence waits/op did not drop with pipeline "
                 "depth (%.4f at depth 16 vs %.4f at depth 1)\n",
                 qwaits16, qwaits1);
    return 1;
  }
  std::printf(
      "# net smoke ok: commits/op %.3f -> %.3f, qwaits/op %.4f -> %.4f, "
      "%llu ops fused across %llu batches, %llu depth-1 batches inline\n",
      commits1, commits16, qwaits1, qwaits16,
      static_cast<unsigned long long>(fused16),
      static_cast<unsigned long long>(batches16),
      static_cast<unsigned long long>(inline1));
  const auto per_batch = [](std::uint64_t n, std::uint64_t batches) {
    return static_cast<double>(n) /
           static_cast<double>(batches > 0 ? batches : 1);
  };
  std::printf(
      "# net smoke loop: per batch %.3f parks, %.1f polls at depth 1; "
      "%.3f parks, %.1f polls at depth 16\n",
      per_batch(loop1.loop_parks, batches1),
      per_batch(loop1.loop_polls, batches1),
      per_batch(loop16.loop_parks, batches16),
      per_batch(loop16.loop_polls, batches16));
  return 0;
}

/// The serving-robustness gate: a connection parked mid-pipeline while a
/// healthy one churns node-freeing updates. Workers never touch sockets
/// and the event loop finishes any inline op before it touches another
/// socket, so the parked client can hold neither a reservation nor a
/// quiescence slot: the watchdog must stay silent and teardown must be
/// Gauge-exact.
int run_stalled_client_gate() {
  using hohtm::reclaim::Watchdog;
  Watchdog::reset_for_testing();
  const long long baseline = hohtm::reclaim::Gauge::live();
  {
    NetCellConfig cfg;
    cfg.frozen_single_shard = true;
    auto store = make_store(cfg);
    Service svc(*store, 2);
    Server server(svc, Server::Options{});
    if (!server.ok()) {
      std::fprintf(stderr, "net stalled smoke: bind failed\n");
      return 1;
    }

    net::Client stalled;
    if (!stalled.connect(server.port())) return 1;
    std::string wire;
    net::encode_put(wire, 1, "stalled-key", "v");
    wire.append("\x30\x00\x00\x00\x02", 5);  // torn frame: parks forever
    if (!stalled.send_raw(wire)) return 1;
    net::NetResponse r;
    if (!stalled.recv(r) || r.status != net::WireStatus::kOk) return 1;

    const std::uint64_t t0 = 1;  // explicit clock: deterministic check
    Watchdog::check(t0);
    net::Client healthy;
    if (!healthy.connect(server.port())) return 1;
    healthy.queue_stats();
    for (int round = 0; round < 16; ++round) {
      for (int i = 0; i < 16; ++i) {
        const std::string key = "churn" + std::to_string(i);
        healthy.queue_put(key, "v" + std::to_string(round));
        healthy.queue_del(key);  // every delete defers a free
      }
    }
    if (healthy.flush() == 0) return 1;
    if (!healthy.recv(r) || r.value.find("\"service\"") == std::string::npos) {
      std::fprintf(stderr, "net stalled smoke: STATS frame came back dead\n");
      return 1;
    }
    for (int i = 0; i < 16 * 32; ++i)
      if (!healthy.recv(r)) {
        std::fprintf(stderr, "net stalled smoke: churn connection died\n");
        return 1;
      }
    const Watchdog::Report report =
        Watchdog::check(t0 + Watchdog::threshold_ns() + 1);
    if (report.stalled_threads != 0 || Watchdog::stall_events() != 0) {
      std::fprintf(stderr,
                   "net stalled smoke: parked client registered as a "
                   "reclamation stall (%d stalled, %llu events)\n",
                   report.stalled_threads,
                   static_cast<unsigned long long>(Watchdog::stall_events()));
      return 1;
    }
    server.stop();
    svc.stop();
    store->finish_migration();
    // One tracked node per live entry plus the single shard's table.
    const long long expect =
        baseline + static_cast<long long>(store->size()) + 1;
    if (hohtm::reclaim::Gauge::live() != expect) {
      std::fprintf(stderr,
                   "net stalled smoke: footprint not Gauge-exact before "
                   "teardown (%lld vs %lld)\n",
                   static_cast<long long>(hohtm::reclaim::Gauge::live()),
                   expect);
      return 1;
    }
  }
  const long long leaked = hohtm::reclaim::Gauge::live() - baseline;
  if (leaked != 0) {
    std::fprintf(stderr, "net stalled smoke: %lld objects leaked\n", leaked);
    return 1;
  }
  std::printf(
      "# net stalled-client smoke ok: watchdog clean, footprint exact\n");
  return 0;
}

int run_smoke() {
  hohtm::harness::emit_header(
      "net", "smoke: loopback YCSB-A, depth 1 vs 16, frozen single shard");
  if (int rc = run_fusion_gate(); rc != 0) return rc;
  return run_stalled_client_gate();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: kv_loopback [--smoke]\n");
      return 2;
    }
  }
  if (smoke) return run_smoke();
  const BenchEnv env = BenchEnv::from_environment();
  hohtm::harness::emit_header(
      "net",
      "loopback serving tier: 2048 records, zipfian(0.99); panels = YCSB "
      "A/B/C/D/E over real sockets; series = client pipeline depth");
  for (Mix mix : {Mix::kA, Mix::kB, Mix::kC, Mix::kD, Mix::kE})
    run_panel(env, mix);
  return 0;
}
