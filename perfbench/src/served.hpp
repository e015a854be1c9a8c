#pragma once

// Served workloads: a closed-loop load generator on the calling thread
// drives kv::Store through net::Server and kv::Service over loopback TCP.
// The traced run replays the same op stream through the wire, straight
// into Service::submit, and straight into Store::run_batch.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "kv/service.hpp"
#include "kv/store.hpp"
#include "kv/workload.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace perfbench {

namespace kv = hohtm::kv;
namespace net = hohtm::net;

template <class RR>
using StoreT = kv::Store<TM, RR>;

struct ServedSpec {
  const char* name;
  std::size_t records;    // prefilled keys, also the Zipfian domain
  int read_pct;           // GETs per 100 ops; the rest overwrite (PUT)
  int conns;              // connections, all driven by one thread
  int depth;              // ops per connection per round trip
  int workers;            // kv::Service worker threads
  std::size_t round_ops;  // timed ops per round, a multiple of conns*depth
};

template <class RR>
typename StoreT<RR>::Options store_options() {
  typename StoreT<RR>::Options opt;
  opt.window = 16;
  opt.fusion_cap = 16;
  return opt;
}

template <class RR>
std::unique_ptr<StoreT<RR>> prefilled_store(std::size_t records) {
  auto store = std::make_unique<StoreT<RR>>(store_options<RR>());
  for (std::size_t r = 0; r < records; ++r)
    store->put(kv::make_key(r), kv::make_value(r, 0));
  store->finish_migration();
  return store;
}

/// Zipfian(0.99) keys; the PUT at stream index i writes
/// make_value(rank, i + 1), so every issued value is distinct.
inline std::vector<Op> served_stream(const ServedSpec& s, std::uint64_t seed) {
  hohtm::util::Xoshiro256 rng(mix_seed(seed, 1));
  hohtm::util::Zipfian zipf(s.records, 0.99, mix_seed(seed, 2));
  const std::vector<Kind> kinds = exact_mix(
      s.round_ops, {{Kind::kGet, s.read_pct}, {Kind::kPut, 100 - s.read_pct}},
      rng);
  std::vector<Op> ops(s.round_ops);
  for (std::size_t i = 0; i < ops.size(); ++i)
    ops[i] = Op{kinds[i], 0, zipf.next()};
  return ops;
}

template <class S>
void add_store_counts(Counts& c, const S& store) {
  c["store.scans"] = static_cast<std::int64_t>(store.scans());
  c["store.scan_windows"] = static_cast<std::int64_t>(store.scan_windows());
  c["store.scan_resumes"] = static_cast<std::int64_t>(store.scan_resumes());
  c["store.migrations"] = static_cast<std::int64_t>(store.migrated_buckets());
  c["store.resizes"] = static_cast<std::int64_t>(store.tables_swapped());
}

template <class S, class Srv>
Counts served_snapshot(const S& store, const Srv& server) {
  Counts c = tm_snapshot();
  add_store_counts(c, store);
  const auto sc = server.counters();
  c["net.batches"] = static_cast<std::int64_t>(sc.batches);
  c["net.bytes"] = static_cast<std::int64_t>(sc.bytes_in + sc.bytes_out);
  c["net.fused_ops"] = static_cast<std::int64_t>(sc.fused_ops);
  c["net.batch_txs"] = static_cast<std::int64_t>(sc.batch_txs);
  return c;
}

/// One client connection: frames are encoded into `out`, written in one
/// burst by flush(), and responses decode incrementally.
struct WireConn {
  int fd = -1;
  std::string out;
  net::ResponseDecoder dec;

  WireConn() = default;
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;
  ~WireConn() {
    if (fd >= 0) ::close(fd);
  }

  bool open(std::uint16_t port) {
    fd = net::connect_tcp(port);
    return fd >= 0;
  }
  bool flush() {
    const bool ok = net::write_all(fd, out.data(), out.size());
    out.clear();
    return ok;
  }
  /// One read into the decoder; false on EOF or error.
  bool read_some() {
    char buf[65536];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof buf);
      if (r > 0) {
        dec.feed(buf, static_cast<std::size_t>(r));
        return true;
      }
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
  }
  bool recv(net::NetResponse& resp) {
    for (;;) {
      const net::DecodeResult d = dec.next(resp);
      if (d == net::DecodeResult::kFrame) return true;
      if (d != net::DecodeResult::kNeedMore || !read_some()) return false;
    }
  }
};

/// Output check for served GETs: a GET must return the key's prefill value
/// or a value some PUT issued for that key no later than the GET's round
/// trip (acknowledged or in flight). The final read-back must return, per
/// key, the last value some connection wrote.
class ValueCheck {
 public:
  void put(std::uint64_t rank, std::uint64_t idx, std::uint32_t rt, int conn,
           std::uint64_t h) {
    puts_.push_back(PutRec{rank, idx, rt, conn, h});
  }
  void got(std::uint64_t rank, std::uint32_t rt, std::uint64_t h) {
    gets_.push_back(GetRec{rank, rt, h});
  }
  void reserve(std::size_t ops) {
    puts_.reserve(ops);
    gets_.reserve(ops);
  }

  /// Number of GETs whose value was never issued for their key in time.
  std::uint64_t bad_gets() {
    std::sort(puts_.begin(), puts_.end(), [](const PutRec& a, const PutRec& b) {
      return a.rank != b.rank ? a.rank < b.rank : a.idx < b.idx;
    });
    std::unordered_map<std::uint64_t, std::uint64_t> prefill;
    std::uint64_t bad = 0;
    for (const GetRec& g : gets_) {
      auto it = std::lower_bound(
          puts_.begin(), puts_.end(), g.rank,
          [](const PutRec& p, std::uint64_t rank) { return p.rank < rank; });
      bool ok = false;
      for (; !ok && it != puts_.end() && it->rank == g.rank; ++it)
        ok = it->rt <= g.rt && it->hash == g.hash;
      if (!ok) {
        auto [pit, fresh] = prefill.try_emplace(g.rank, 0);
        if (fresh) pit->second = hash_value(kv::make_value(g.rank, 0));
        ok = pit->second == g.hash;
      }
      bad += ok ? 0 : 1;
    }
    return bad;
  }

  /// Per written key, the hash of each connection's last write to it.
  std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>
  last_writes() const {
    std::unordered_map<std::uint64_t, std::unordered_map<int, const PutRec*>>
        last;
    for (const PutRec& p : puts_) {
      const PutRec*& slot = last[p.rank][p.conn];
      if (slot == nullptr || slot->idx < p.idx) slot = &p;
    }
    std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> out;
    for (const auto& [rank, per_conn] : last) {
      std::vector<std::uint64_t> hashes;
      for (const auto& [conn, rec] : per_conn) hashes.push_back(rec->hash);
      out.emplace_back(rank, std::move(hashes));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct PutRec {
    std::uint64_t rank;
    std::uint64_t idx;
    std::uint32_t rt;
    int conn;
    std::uint64_t hash;
  };
  struct GetRec {
    std::uint64_t rank;
    std::uint32_t rt;
    std::uint64_t hash;
  };
  std::vector<PutRec> puts_;
  std::vector<GetRec> gets_;
};

/// The timed phase: each round trip queues `depth` ops on every
/// connection, flushes each connection in turn, and waits for all of the
/// responses. Latency runs from an op's flush to the receipt of its
/// response; the phase runs from the first send to the last receipt, both
/// stamped here. With `spans`, one net.batch span per (round trip,
/// connection) request, id = rt * conns + conn.
inline void wire_phase(const ServedSpec& s, const std::vector<Op>& ops,
                       std::size_t n_ops, std::vector<WireConn>& conns,
                       Round& r, ValueCheck& check, LivePeak& live,
                       const Hooks& hooks, std::vector<Span>* spans) {
  const std::size_t nc = conns.size();
  const std::size_t depth = static_cast<std::size_t>(s.depth);
  const std::size_t per_rt = nc * depth;
  const std::size_t n_rt = n_ops / per_rt;
  std::vector<std::int64_t> flush_ns(nc), last_ns(nc);
  std::vector<std::size_t> got(nc);
  std::vector<pollfd> pfd(nc);
  for (std::size_t c = 0; c < nc; ++c) pfd[c] = pollfd{conns[c].fd, POLLIN, 0};
  const std::uint64_t root = spans != nullptr ? next_span_id() : 0;
  net::NetResponse resp;

  r.start_ns = now_ns();
  if (hooks.gen_delay_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(hooks.gen_delay_ms));
  for (std::size_t rt = 0; rt < n_rt; ++rt) {
    const auto rt32 = static_cast<std::uint32_t>(rt);
    const std::int64_t rt_start = now_ns();
    for (std::size_t c = 0; c < nc; ++c) {
      const std::size_t base = (rt * nc + c) * depth;
      for (std::size_t i = base; i < base + depth; ++i) {
        const Op& op = ops[i];
        const auto seq = static_cast<std::uint32_t>(i + 1);
        const std::string key = kv::make_key(op.rank);
        if (op.kind == Kind::kGet) {
          net::encode_get(conns[c].out, seq, key);
        } else {
          const std::string value = kv::make_value(op.rank, i + 1);
          check.put(op.rank, i, rt32, static_cast<int>(c), hash_value(value));
          net::encode_put(conns[c].out, seq, key, value);
        }
      }
      r.attempted += depth;
      flush_ns[c] = now_ns();
      if (!conns[c].flush()) {
        r.fail(depth * (nc - c), "flush failed");
        return;
      }
      got[c] = 0;
    }
    std::size_t remaining = per_rt;
    while (remaining > 0) {
      const int n = ::poll(pfd.data(), nc, 10000);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        r.fail(remaining, "no response within 10 s");
        return;
      }
      for (std::size_t c = 0; c < nc; ++c) {
        if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!conns[c].read_some()) {
          r.fail(remaining, "connection lost");
          return;
        }
        for (;;) {
          const net::DecodeResult d = conns[c].dec.next(resp);
          if (d == net::DecodeResult::kNeedMore) break;
          const std::int64_t t = now_ns();
          if (d != net::DecodeResult::kFrame || got[c] >= depth) {
            r.fail(remaining, "malformed or unexpected response");
            return;
          }
          const std::size_t i = (rt * nc + c) * depth + got[c]++;
          --remaining;
          const Op& op = ops[i];
          r.add_op(clamp_ns(t - flush_ns[c]), op.kind != Kind::kGet);
          last_ns[c] = t;
          if (resp.seq != i + 1) {
            r.fail(1, "response out of order");
          } else if (resp.status != net::WireStatus::kOk) {
            r.fail(1, "status " + std::to_string(static_cast<int>(resp.status)) +
                          " on a prefilled key");
          } else if (op.kind == Kind::kGet) {
            check.got(op.rank, rt32, hash_value(resp.value));
          }
        }
      }
    }
    std::int64_t rt_end = 0;
    for (std::size_t c = 0; c < nc; ++c) {
      rt_end = std::max(rt_end, last_ns[c]);
      if (spans != nullptr)
        spans->push_back(Span{"net.batch", next_span_id(), root, rt * nc + c,
                              flush_ns[c], last_ns[c]});
    }
    r.busy_ns += rt_end - rt_start;
    if (rt % 64 == 0) live.sample();
    if (rt % 4096 == 0) hohtm::reclaim::Watchdog::check_now();
  }
  r.end_ns = now_ns();
  r.max_busy_ns = r.busy_ns;
  live.sample();
  if (spans != nullptr)
    spans->push_back(Span{"replay.wire", root, 0, 0, r.start_ns, r.end_ns});
}

/// Untimed read-back over one connection: every key written in the phase
/// must hold the last value one of the connections wrote to it.
inline void read_back(WireConn& conn, const ValueCheck& check, Round& r) {
  const auto last = check.last_writes();
  net::NetResponse resp;
  for (std::size_t i = 0; i < last.size(); i += 64) {
    const std::size_t n = std::min<std::size_t>(64, last.size() - i);
    for (std::size_t k = 0; k < n; ++k)
      net::encode_get(conn.out, static_cast<std::uint32_t>(k),
                      kv::make_key(last[i + k].first));
    r.attempted += n;
    if (!conn.flush()) {
      r.fail(n, "read-back flush failed");
      return;
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (!conn.recv(resp)) {
        r.fail(n - k, "read-back connection lost");
        return;
      }
      const auto& hashes = last[i + k].second;
      if (resp.status != net::WireStatus::kOk ||
          std::find(hashes.begin(), hashes.end(), hash_value(resp.value)) ==
              hashes.end())
        r.fail(1, "read-back value is no connection's last write");
    }
  }
}

/// Footprint and teardown checks shared by the store workloads: settle
/// migration, require the Gauge to hold exactly one object per entry and
/// per shard table (reclaim.backlog_end == 0), then destroy the store and
/// require nothing to be left behind.
template <class S>
void teardown_store(std::unique_ptr<S>& store, const LivePeak& live, Round& r) {
  store->finish_migration();
  const auto entries = static_cast<std::int64_t>(store->size());
  r.footprint_per_key =
      entries > 0 ? static_cast<double>(live.peak) / static_cast<double>(entries)
                  : 0.0;
  const std::int64_t backlog = hohtm::reclaim::Gauge::live() - live.baseline -
                               entries -
                               static_cast<std::int64_t>(store->shard_count());
  r.counts["reclaim.backlog_end"] = backlog;
  if (backlog != 0)
    r.fail(1, "reclaim backlog " + std::to_string(backlog) + " at teardown");
  if (!store->is_consistent()) r.fail(1, "store structure inconsistent");
  store.reset();
  const std::int64_t leaked = hohtm::reclaim::Gauge::live() - live.baseline;
  if (leaked != 0)
    r.fail(1, std::to_string(leaked) + " objects outlived the store");
}

/// One round: set-up (prefill, finish_migration, server start, connects),
/// the timed phase, the output checks, teardown.
template <class RR>
Round served_round(const ServedSpec& s, const std::vector<Op>& ops,
                   std::size_t n_ops, const Hooks& hooks,
                   std::vector<Span>* spans) {
  Round r;
  LivePeak live;
  live.baseline = hohtm::reclaim::Gauge::live();
  const std::int64_t t0 = now_ns();
  auto store = prefilled_store<RR>(s.records);
  {
    kv::Service<TM, RR> svc(*store, static_cast<std::size_t>(s.workers));
    net::Server<TM, RR> server(svc, typename net::Server<TM, RR>::Options{});
    std::vector<WireConn> conns(static_cast<std::size_t>(s.conns));
    bool connected = server.ok();
    for (WireConn& c : conns) connected = connected && c.open(server.port());
    if (!connected) {
      r.fail(1, "server start or connect failed");
      return r;
    }
    r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

    const Counts before = served_snapshot(*store, server);
    ValueCheck check;
    check.reserve(n_ops);
    r.lat_ns.reserve(n_ops);
    r.write_lat_ns.reserve(n_ops);
    if (spans != nullptr) spans->reserve(spans->size() + n_ops + 1);
    // The generator runs on a fresh thread each round, so the scheduler
    // places it anew. A generator that stays on the main thread for the
    // whole run made serve-rw-d1 latency bimodal from run to run. Buffers
    // are reserved above, on the main thread, so that the allocator arena
    // of each new thread holds little and peak RSS stays steady.
    std::thread([&] {
      wire_phase(s, ops, n_ops, conns, r, check, live, hooks, spans);
    }).join();
    r.counts = served_snapshot(*store, server) - before;
    if (r.failed == 0) read_back(conns[0], check, r);
    if (const std::uint64_t bad = check.bad_gets(); bad > 0)
      r.fail(bad, "GET returned a value never issued for its key");
    server.stop();
    svc.stop();
  }
  teardown_store(store, live, r);
  return r;
}

/// kv::BatchOps for request (rt, c) of the stream: what the server builds
/// from one connection's pipeline read.
inline void fill_batch(const std::vector<Op>& ops, std::size_t base,
                       std::size_t depth, std::vector<kv::BatchOp>& batch) {
  batch.assign(depth, kv::BatchOp{});
  for (std::size_t d = 0; d < depth; ++d) {
    const Op& op = ops[base + d];
    batch[d].op = op.kind == Kind::kGet ? kv::OpCode::kGet : kv::OpCode::kPut;
    batch[d].key = kv::make_key(op.rank);
    if (op.kind != Kind::kGet) batch[d].value = kv::make_value(op.rank, base + d + 1);
  }
}

inline void check_batch(const std::vector<kv::BatchOp>& batch, Round& r) {
  for (const kv::BatchOp& op : batch)
    if (op.op == kv::OpCode::kGet && !op.hit) r.fail(1, "replayed GET missed");
}

/// Replay straight into the service: per round trip, one kBatch request
/// per connection is submitted, then each Completion is awaited. One
/// kv.service.batch span per request.
template <class RR>
void service_replay(const ServedSpec& s, const std::vector<Op>& ops,
                      std::size_t n_ops, std::vector<Span>& spans, Round& r) {
  auto store = prefilled_store<RR>(s.records);
  kv::Service<TM, RR> svc(*store, static_cast<std::size_t>(s.workers));
  const std::size_t nc = static_cast<std::size_t>(s.conns);
  const std::size_t depth = static_cast<std::size_t>(s.depth);
  const std::size_t n_rt = n_ops / (nc * depth);
  std::vector<std::vector<kv::BatchOp>> batches(nc);
  std::vector<kv::Completion> done(nc);
  std::vector<std::int64_t> t0(nc);
  const std::uint64_t root = next_span_id();
  const std::int64_t start = now_ns();
  for (std::size_t rt = 0; rt < n_rt; ++rt) {
    for (std::size_t c = 0; c < nc; ++c) {
      fill_batch(ops, (rt * nc + c) * depth, depth, batches[c]);
      done[c].reset();
      kv::Request req;
      req.op = kv::OpCode::kBatch;
      req.done = &done[c];
      req.batch = batches[c].data();
      req.batch_len = static_cast<std::uint32_t>(depth);
      t0[c] = now_ns();
      svc.submit(std::move(req));
    }
    for (std::size_t c = 0; c < nc; ++c) {
      done[c].wait();
      spans.push_back(Span{"kv.service.batch", next_span_id(), root,
                           rt * nc + c, t0[c], now_ns()});
      check_batch(batches[c], r);
    }
  }
  const std::int64_t end = now_ns();
  spans.push_back(Span{"replay.service", root, 0, 0, start, end});
  svc.stop();
}

/// Replay straight into the store on this thread: Store::run_batch per
/// request, the call a Service worker makes. One kv.store.batch span per
/// request, with core.rr.* child spans on sampled requests.
template <class RR>
void store_replay(const ServedSpec& s, const std::vector<Op>& ops,
                    std::size_t n_ops, std::vector<Span>& spans, RrHist& hist,
                    Round& r) {
  auto store = prefilled_store<RR>(s.records);
  const std::size_t nc = static_cast<std::size_t>(s.conns);
  const std::size_t depth = static_cast<std::size_t>(s.depth);
  const std::size_t n_rt = n_ops / (nc * depth);
  std::vector<kv::BatchOp> batch;
  const std::uint64_t root = next_span_id();
  const std::int64_t start = now_ns();
  for (std::size_t req = 0; req < n_rt * nc; ++req) {
    fill_batch(ops, req * depth, depth, batch);
    const std::uint64_t id = next_span_id();
    tctx = TraceCtx{&hist, sampled(req) ? &spans : nullptr, id, req};
    kv::BatchCounters bc;
    const std::int64_t t0 = now_ns();
    store->run_batch(batch.data(), batch.size(), bc);
    const std::int64_t t1 = now_ns();
    tctx = TraceCtx{};
    spans.push_back(Span{"kv.store.batch", id, root, req, t0, t1});
    check_batch(batch, r);
  }
  const std::int64_t end = now_ns();
  spans.push_back(Span{"replay.store", root, 0, 0, start, end});
}

}  // namespace perfbench
