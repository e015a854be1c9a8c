// End-to-end serving-tier tests over real loopback sockets
// (docs/SERVING.md): pipelined multi-connection runs checked against a
// std::map differential oracle, shared hot keys read across event loops
// checked against client-side send/receive stamps, in-order completion,
// per-connection backpressure, one-batch-per-pass fairness, loop
// isolation under a held transaction, descriptor hygiene when stop()
// races accepts, torn writes, half-close, oversized-frame rejection,
// idle timeout, the poll-then-park rule, and the stalled-client
// reclamation scenario — a connection parked mid-pipeline must leave
// the reclamation-stall watchdog clean and the footprint Gauge-exact
// while other clients churn.

#include "net/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rr.hpp"
#include "net/client.hpp"
#include "reclaim/gauge.hpp"
#include "reclaim/watchdog.hpp"
#include "util/random.hpp"

namespace hohtm {
namespace {

using TM = tm::Norec;
using RR = rr::RrV<TM>;
using Store = kv::Store<TM, RR>;
using Service = kv::Service<TM, RR>;
using Server = net::Server<TM, RR>;

kv::Store<TM, RR>::Options small_store() {
  kv::Store<TM, RR>::Options opt;
  opt.log2_shards = 1;
  opt.log2_buckets = 3;
  opt.fusion_cap = 8;
  return opt;
}

/// Block the calling thread for `d` on a condition-variable deadline.
void idle_for(std::chrono::milliseconds d) {
  std::mutex m;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(m);
  cv.wait_for(lock, d, [] { return false; });
}

/// True once `fd` has bytes (or EOF) to read, false after `ms` without.
bool readable_within(int fd, int ms) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, ms) == 1;
}

/// Spin (bounded) until loop 0 has accepted `n` connections: the n-th
/// accepted connection goes to loop n % K, so tests that place
/// connections on loops connect one at a time.
bool wait_accepted(const Server& server, std::uint64_t n) {
  for (int i = 0; i < 10000; ++i) {
    if (server.counters().accepted >= n) return true;
    idle_for(std::chrono::milliseconds(1));
  }
  return false;
}

std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

/// A one-shot barrier a hook can park in: the hooked thread calls
/// hold(), which reports entry and blocks until release().
class Gate {
 public:
  void hold() {
    std::unique_lock<std::mutex> lock(m_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  bool wait_entered() {
    std::unique_lock<std::mutex> lock(m_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(m_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(NetLoopback, RoundTripEveryOpcode) {
  Store store(small_store());
  Service svc(store, 2);
  Server server(svc, Server::Options{});
  ASSERT_TRUE(server.ok());

  net::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  client.queue_put("alpha", "1");
  client.queue_get("alpha");
  client.queue_get("missing");
  client.queue_del("alpha");
  client.queue_del("alpha");
  client.queue_put("scan-a", "x");
  client.queue_put("scan-b", "y");
  // Scans start at the given key's canonical (hash, key) position and
  // are inclusive, so scanning from a live key yields at least itself.
  client.queue_scan("scan-a", 100);
  client.queue_stats();
  ASSERT_GT(client.flush(), 0u);

  net::NetResponse r;
  ASSERT_TRUE(client.recv(r));  // put alpha
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_TRUE(r.created);
  ASSERT_TRUE(client.recv(r));  // get alpha
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_EQ(r.value, "1");
  ASSERT_TRUE(client.recv(r));  // get missing
  EXPECT_EQ(r.status, net::WireStatus::kNotFound);
  ASSERT_TRUE(client.recv(r));  // del alpha
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  ASSERT_TRUE(client.recv(r));  // del alpha again
  EXPECT_EQ(r.status, net::WireStatus::kNotFound);
  ASSERT_TRUE(client.recv(r));  // put scan-a
  ASSERT_TRUE(client.recv(r));  // put scan-b
  ASSERT_TRUE(client.recv(r));  // scan
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_GE(r.scan_count, 1u);
  EXPECT_LE(r.scan_count, 2u);
  ASSERT_TRUE(client.recv(r));  // stats
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_NE(r.value.find("\"service\""), std::string::npos);

  client.close();
  server.stop();
  svc.stop();
}

/// What a pipelined run paid per op: commits and quiescence waits as
/// tm::Stats deltas around the client phase, and the ops the server
/// committed inside fused same-shard groups.
struct PipelineCost {
  double commits_per_op = 0;
  double qwaits_per_op = 0;
  std::uint64_t fused_ops = 0;
};

// Multi-connection pipelined mixed-op run against per-connection
// std::map oracles (disjoint keyspaces make each oracle independent),
// with the in-order-completion assertion: every response carries the
// next expected seq for its connection, strictly increasing. `loops`
// event loops serve the four connections.
PipelineCost run_pipelined_oracle(int pipeline, const Store::Options& opt,
                                  std::size_t loops = 2) {
  SCOPED_TRACE("pipeline depth " + std::to_string(pipeline));
  Store store(opt);
  Service svc(store, loops);
  Server server(svc, Server::Options{});
  if (!server.ok()) {
    ADD_FAILURE() << "failed to bind the loopback server";
    return {};
  }

  constexpr int kConns = 4;
  const int rounds = 192 / pipeline;
  const tm::StatCounters before = tm::Stats::total();
  std::vector<std::thread> clients;
  clients.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      net::Client client;
      ASSERT_TRUE(client.connect(server.port()));
      std::map<std::string, std::string> oracle;
      util::Xoshiro256 rng(0x1000 + static_cast<std::uint64_t>(c));
      const std::string prefix = "c" + std::to_string(c) + "-";
      std::uint32_t expect_seq = 0;
      for (int round = 0; round < rounds; ++round) {
        // Queue a pipeline of mixed ops and remember the model answers.
        struct Expected {
          net::WireOp op;
          std::uint32_t seq;
          bool hit;
          std::string value;
        };
        std::vector<Expected> expect;
        for (int i = 0; i < pipeline; ++i) {
          const std::string key =
              prefix + std::to_string(rng.next_below(32));
          const std::uint64_t kind = rng.next_below(4);
          if (kind < 2) {
            const std::string value =
                "v" + std::to_string(rng.next_below(1000));
            const bool created = oracle.find(key) == oracle.end();
            oracle[key] = value;
            expect.push_back({net::WireOp::kPut, client.queue_put(key, value),
                              created, ""});
          } else if (kind == 2) {
            const auto it = oracle.find(key);
            expect.push_back({net::WireOp::kGet, client.queue_get(key),
                              it != oracle.end(),
                              it != oracle.end() ? it->second : ""});
          } else {
            const bool present = oracle.erase(key) > 0;
            expect.push_back(
                {net::WireOp::kDel, client.queue_del(key), present, ""});
          }
        }
        ASSERT_GT(client.flush(), 0u);
        for (const Expected& e : expect) {
          net::NetResponse r;
          ASSERT_TRUE(client.recv(r));
          EXPECT_EQ(r.op, e.op);
          // In-order completion: seqs echo back strictly in submission
          // order on this connection.
          EXPECT_GT(r.seq, expect_seq);
          expect_seq = r.seq;
          EXPECT_EQ(r.seq, e.seq);
          switch (e.op) {
            case net::WireOp::kPut:
              EXPECT_EQ(r.status, net::WireStatus::kOk);
              EXPECT_EQ(r.created, e.hit);
              break;
            case net::WireOp::kGet:
              EXPECT_EQ(r.status, e.hit ? net::WireStatus::kOk
                                        : net::WireStatus::kNotFound);
              if (e.hit) EXPECT_EQ(r.value, e.value);
              break;
            default:
              EXPECT_EQ(r.status, e.hit ? net::WireStatus::kOk
                                        : net::WireStatus::kNotFound);
              break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const tm::StatCounters after = tm::Stats::total();
  const Server::Counters c = server.counters();
  EXPECT_GE(c.accepted, static_cast<std::uint64_t>(kConns));
  // One flush is one loopback segment, so each pipeline read is exactly
  // one flush and one batch.
  EXPECT_EQ(c.batches, static_cast<std::uint64_t>(kConns * rounds));
  const std::uint64_t ops =
      static_cast<std::uint64_t>(kConns * rounds * pipeline);
  EXPECT_EQ(svc.stats().gets + svc.stats().puts + svc.stats().dels, ops);
  server.stop();
  svc.stop();
  PipelineCost cost;
  cost.commits_per_op = static_cast<double>(after.commits - before.commits) /
                        static_cast<double>(ops);
  cost.qwaits_per_op =
      static_cast<double>(after.quiescence_waits - before.quiescence_waits) /
      static_cast<double>(ops);
  cost.fused_ops = c.fused_ops;
  return cost;
}

TEST(NetLoopback, MultiConnectionPipelinedDifferentialOracle) {
  run_pipelined_oracle(16, small_store());
  run_pipelined_oracle(1, small_store());
}

// Batch-boundary window fusion over real sockets: a depth-16 pipeline
// pays strictly fewer commits AND quiescence waits per op than depth 1,
// with nonzero fused ops. One frozen shard makes every batch one
// fuseable run and keeps migration transactions out of the counts, so a
// depth-1 op is exactly its own window transaction: a per-op probe
// transaction would read 2.0 commits/op or more. That holds for one
// executor, so depth 1 runs on one loop: with two loops running depth-1
// ops at once on the one shard, an op now and then commits twice (1.0013
// commits/op in 3 of 480 runs under load).
TEST(NetLoopback, PipelineDepthCutsCommitsAndQuiescenceWaitsPerOp) {
  Store::Options frozen = small_store();
  frozen.log2_shards = 0;
  frozen.log2_buckets = 6;
  frozen.max_log2_buckets = frozen.log2_buckets;
  frozen.fusion_cap = 16;
  const PipelineCost d1 = run_pipelined_oracle(1, frozen, 1);
  const PipelineCost d16 = run_pipelined_oracle(16, frozen);
  EXPECT_LE(d1.commits_per_op, 1.001);
  EXPECT_LT(d16.commits_per_op, d1.commits_per_op);
  EXPECT_LT(d16.qwaits_per_op, d1.qwaits_per_op);
  EXPECT_GT(d16.fused_ops, 0u);
}

// Per-connection backpressure: a 64-op pipeline against a 4-op in-flight
// window must answer everything correctly while never exceeding the
// window (high-water counter), the reads throttled by EPOLLIN removal.
TEST(NetLoopback, BackpressureBoundsInflightWindow) {
  Store store(small_store());
  Service svc(store, 2);
  Server::Options opt;
  opt.max_inflight_ops = 4;
  Server server(svc, opt);
  ASSERT_TRUE(server.ok());

  net::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  constexpr int kOps = 64;
  for (int i = 0; i < kOps; ++i)
    client.queue_put("bp" + std::to_string(i), "v" + std::to_string(i));
  ASSERT_GT(client.flush(), 0u);
  for (int i = 0; i < kOps; ++i) {
    net::NetResponse r;
    ASSERT_TRUE(client.recv(r));
    EXPECT_EQ(r.status, net::WireStatus::kOk);
    EXPECT_TRUE(r.created);
  }
  std::string value;
  for (int i = 0; i < kOps; ++i) {
    client.queue_get("bp" + std::to_string(i));
    ASSERT_GT(client.flush(), 0u);
    net::NetResponse r;
    ASSERT_TRUE(client.recv(r));
    EXPECT_EQ(r.value, "v" + std::to_string(i));
  }
  const Server::Counters c = server.counters();
  EXPECT_LE(c.max_inflight, 4u);
  EXPECT_GT(c.batches, 0u);
  server.stop();
  svc.stop();
}

// Torn frames over a real socket: drip-feed an encoded pipeline one byte
// at a time; the incremental decoder must reassemble it exactly.
TEST(NetLoopback, TornWritesReassemble) {
  Store store(small_store());
  Service svc(store, 1);
  Server server(svc, Server::Options{});
  ASSERT_TRUE(server.ok());

  net::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  std::string wire;
  net::encode_put(wire, 1, "torn", "value");
  net::encode_get(wire, 2, "torn");
  for (char byte : wire) ASSERT_TRUE(client.send_raw({&byte, 1}));
  net::NetResponse r;
  ASSERT_TRUE(client.recv(r));
  EXPECT_EQ(r.seq, 1u);
  EXPECT_TRUE(r.created);
  ASSERT_TRUE(client.recv(r));
  EXPECT_EQ(r.seq, 2u);
  EXPECT_EQ(r.value, "value");
  server.stop();
  svc.stop();
}

TEST(NetLoopback, OversizedFrameRejectedAndConnectionClosed) {
  Store store(small_store());
  Service svc(store, 1);
  Server::Options opt;
  opt.max_frame_bytes = 128;
  Server server(svc, opt);
  ASSERT_TRUE(server.ok());

  net::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  std::string wire;
  net::encode_put(wire, 1, "ok-key", "small");  // fits: served normally
  net::encode_put(wire, 2, "big-key", std::string(4096, 'x'));  // rejected
  ASSERT_TRUE(client.send_raw(wire));
  net::NetResponse r;
  ASSERT_TRUE(client.recv(r));
  EXPECT_EQ(r.seq, 1u);
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  ASSERT_TRUE(client.recv(r));
  EXPECT_EQ(r.status, net::WireStatus::kBadFrame);
  EXPECT_FALSE(client.recv(r));  // server closed after the rejection
  EXPECT_GE(server.counters().rejected_frames, 1u);
  server.stop();
  svc.stop();
}

TEST(NetLoopback, IdleConnectionTimesOut) {
  Store store(small_store());
  Service svc(store, 1);
  Server::Options opt;
  opt.idle_timeout_ms = 20;
  Server server(svc, opt);
  ASSERT_TRUE(server.ok());

  net::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  // Park mid-frame: a length prefix promising more than we send.
  ASSERT_TRUE(client.send_raw(std::string("\x40\x00\x00\x00", 4)));
  net::NetResponse r;
  EXPECT_FALSE(client.recv(r));  // blocks until the server reaps us: EOF
  EXPECT_GE(server.counters().timeouts, 1u);
  server.stop();
  svc.stop();
}

// Poll before parking, bounded: after serving traffic the loop polls
// for one window and then parks, so an idle server makes no zero-timeout
// passes (a window that never expired would keep loop_polls growing and
// never park again).
TEST(NetLoopback, IdleServerParks) {
  Store store(small_store());
  Service svc(store, 1);
  Server server(svc, Server::Options{});
  ASSERT_TRUE(server.ok());

  net::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  const std::uint64_t parks_before = server.counters().loop_parks;
  net::NetResponse r;
  for (int i = 0; i < 8; ++i) {  // single-op batches
    client.queue_put("idle" + std::to_string(i), "v");
    ASSERT_GT(client.flush(), 0u);
    ASSERT_TRUE(client.recv(r));
  }
  client.queue_get("idle0");  // and one two-op batch
  client.queue_get("idle1");
  ASSERT_GT(client.flush(), 0u);
  ASSERT_TRUE(client.recv(r));
  ASSERT_TRUE(client.recv(r));

  // Let the window lapse: wait (bounded) until the loop has parked again
  // and loop_polls holds still. Polls alone also hold still while the
  // loop thread is descheduled mid-window on a loaded host.
  Server::Counters settled = server.counters();
  for (int i = 0; i < 200; ++i) {
    idle_for(std::chrono::milliseconds(5));
    const Server::Counters now = server.counters();
    if (now.loop_polls == settled.loop_polls &&
        now.loop_parks > parks_before)
      break;
    settled = now;
  }
  idle_for(std::chrono::milliseconds(30));
  const Server::Counters after = server.counters();
  EXPECT_EQ(after.loop_polls, settled.loop_polls);
  EXPECT_GT(settled.loop_parks, parks_before);
  EXPECT_GT(after.loop_polls, 0u);
  server.stop();
  svc.stop();
}

/// A store whose every batch op runs its own transaction, with a fail
/// hook that, once armed, parks the first transaction to reach it in
/// `gate`.
struct HeldStore {
  Gate gate;
  std::atomic<bool> held{true};
  Store store;

  HeldStore() : store(unfused()) {
    store.set_fail_hook_for_testing([this] {
      if (!held.exchange(true, std::memory_order_relaxed)) gate.hold();
    });
  }
  void arm() { held.store(false, std::memory_order_relaxed); }
  static Store::Options unfused() {
    Store::Options opt = small_store();
    opt.fusion_cap = 0;
    return opt;
  }
};

// Loops are isolated: a transaction held mid-batch on loop 0 stalls
// only loop 0's connections. A GET on loop 1 is answered during the
// hold (a read-only commit has no fence to wait at), and the held
// connection is answered in order once released.
TEST(NetLoopback, HeldTransactionOnOneLoopDoesNotDelayAnother) {
  HeldStore hs;
  Service svc(hs.store, 2);
  Server server(svc, Server::Options{});
  ASSERT_TRUE(server.ok());

  net::Client held;  // accepted first: loop 0
  ASSERT_TRUE(held.connect(server.port()));
  ASSERT_TRUE(wait_accepted(server, 1));
  net::Client other;  // accepted second: loop 1
  ASSERT_TRUE(other.connect(server.port()));
  ASSERT_TRUE(wait_accepted(server, 2));
  net::NetResponse r;
  other.queue_put("free", "v");
  ASSERT_GT(other.flush(), 0u);
  ASSERT_TRUE(other.recv(r));

  hs.arm();
  const std::uint32_t s1 = held.queue_put("held-a", "1");
  const std::uint32_t s2 = held.queue_put("held-b", "2");
  ASSERT_GT(held.flush(), 0u);
  ASSERT_TRUE(hs.gate.wait_entered());

  other.queue_get("free");
  ASSERT_GT(other.flush(), 0u);
  EXPECT_TRUE(readable_within(other.fd(), 5000))
      << "a GET on loop 1 waited for a transaction held on loop 0";
  hs.gate.release();
  ASSERT_TRUE(other.recv(r));
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_EQ(r.value, "v");
  ASSERT_TRUE(held.recv(r));
  EXPECT_EQ(r.seq, s1);
  EXPECT_TRUE(r.created);
  ASSERT_TRUE(held.recv(r));
  EXPECT_EQ(r.seq, s2);
  EXPECT_TRUE(r.created);
  server.stop();
  svc.stop();
}

// stop() racing a burst of connects leaves no descriptor open. Loop 1 is
// held inside a transaction while loop 0 keeps accepting, so every
// connection handed to loop 1 waits in its hand-off vector when stop()
// begins; the loop returns without adopting them, and stop() must close
// them along with the listener, eventfds, epoll sets and connections.
TEST(NetLoopback, StopRacingConnectBurstLeavesNoDescriptorOpen) {
  HeldStore hs;
  Service svc(hs.store, 2);
  const std::size_t fds_before = open_fds();
  {
    Server server(svc, Server::Options{});
    ASSERT_TRUE(server.ok());
    net::Client idle;  // loop 0
    ASSERT_TRUE(idle.connect(server.port()));
    ASSERT_TRUE(wait_accepted(server, 1));
    net::Client held;  // loop 1
    ASSERT_TRUE(held.connect(server.port()));
    ASSERT_TRUE(wait_accepted(server, 2));
    hs.arm();
    held.queue_put("held-a", "1");
    held.queue_put("held-b", "2");
    ASSERT_GT(held.flush(), 0u);
    ASSERT_TRUE(hs.gate.wait_entered());

    constexpr int kThreads = 4;
    constexpr int kConnectsPerThread = 8;
    std::vector<std::vector<int>> client_fds(kThreads);
    std::vector<std::thread> burst;
    for (int t = 0; t < kThreads; ++t) {
      burst.emplace_back([&, t] {
        for (int i = 0; i < kConnectsPerThread; ++i) {
          const int fd = net::connect_tcp(server.port());
          if (fd >= 0) client_fds[t].push_back(fd);
        }
      });
    }
    // At least one connection (the 4th accepted) is parked in loop 1's
    // hand-off before stop() begins; the rest race it.
    ASSERT_TRUE(wait_accepted(server, 4));
    std::thread stopper([&] { server.stop(); });
    idle_for(std::chrono::milliseconds(50));
    hs.gate.release();
    stopper.join();
    for (std::thread& t : burst) t.join();
    for (const auto& fds : client_fds)
      for (const int fd : fds) ::close(fd);
  }
  svc.stop();
  EXPECT_EQ(open_fds(), fds_before);
}

// One batch per connection per loop pass: a connection that pipelines
// 4,096 GETs in one write does not hold off a lone op on the same loop
// until its backlog drains. Both land while loop 0 is held, so they are
// read in the same pass; the lone PUT must run after at most one of the
// flood's batches, which the flood's GETs show: at most one window of
// them may read the value from before the PUT.
TEST(NetLoopback, PipelineFloodDoesNotHoldOffLoneOpOnSameLoop) {
  HeldStore hs;
  Service svc(hs.store, 2);
  const Server::Options opt;
  Server server(svc, opt);
  ASSERT_TRUE(server.ok());

  // Accept order places held, flood and lone on loop 0.
  net::Client held, filler1, flood, filler2, lone;
  net::Client* order[] = {&held, &filler1, &flood, &filler2, &lone};
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(order[i]->connect(server.port()));
    ASSERT_TRUE(wait_accepted(server, i + 1));
  }
  net::NetResponse r;
  lone.queue_put("hot", "old");
  ASSERT_GT(lone.flush(), 0u);
  ASSERT_TRUE(lone.recv(r));

  hs.arm();
  held.queue_put("held-a", "1");
  held.queue_put("held-b", "2");
  ASSERT_GT(held.flush(), 0u);
  ASSERT_TRUE(hs.gate.wait_entered());

  constexpr int kFlood = 4096;
  std::vector<std::uint32_t> seqs;
  for (int i = 0; i < kFlood; ++i) seqs.push_back(flood.queue_get("hot"));
  std::atomic<bool> flushed{false};
  std::thread writer([&] {
    EXPECT_GT(flood.flush(), 0u);
    flushed.store(true, std::memory_order_release);
  });
  for (int i = 0; i < 2000 && !flushed.load(std::memory_order_acquire); ++i)
    idle_for(std::chrono::milliseconds(1));
  lone.queue_put("hot", "new");
  ASSERT_GT(lone.flush(), 0u);
  hs.gate.release();
  writer.join();

  ASSERT_TRUE(lone.recv(r));
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  std::size_t saw_old = 0;
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(flood.recv(r));
    EXPECT_EQ(r.seq, seqs[static_cast<std::size_t>(i)]);
    ASSERT_EQ(r.status, net::WireStatus::kOk);
    if (r.value == "old") ++saw_old;
  }
  EXPECT_LE(saw_old, opt.max_inflight_ops)
      << "the lone PUT waited behind the flood's backlog";
  ASSERT_TRUE(held.recv(r));
  ASSERT_TRUE(held.recv(r));
  server.stop();
  svc.stop();
}

// Shared hot keys across loops: four connections (two per loop) run
// pipelined GETs and PUTs of unique values on 8 shared keys, each op
// stamped by the client at send and at receive. Every GET must return
// either the prefill value, when no PUT of the key had answered before
// the GET was sent, or the value of a PUT sent before the GET answered
// that no later PUT had certainly overwritten — one sent after that PUT
// answered and answered before the GET was sent.
TEST(NetLoopback, SharedHotKeysAcrossLoopsReadOnlyLiveValues) {
  Store store(small_store());
  Service svc(store, 2);
  Server server(svc, Server::Options{});
  ASSERT_TRUE(server.ok());

  constexpr int kKeys = 8;
  constexpr int kConns = 4;
  constexpr int kOpsPerConn = 3000;
  const std::string prefill = "prefill";
  {
    net::Client c;
    ASSERT_TRUE(c.connect(server.port()));
    for (int k = 0; k < kKeys; ++k) c.queue_put("hot" + std::to_string(k), prefill);
    ASSERT_GT(c.flush(), 0u);
    net::NetResponse r;
    for (int k = 0; k < kKeys; ++k) ASSERT_TRUE(c.recv(r));
  }

  struct Event {
    int key;
    bool put;
    std::string value;
    std::int64_t sent;
    std::int64_t answered;
  };
  const auto now = [] {
    return std::chrono::steady_clock::now().time_since_epoch().count();
  };
  std::vector<std::vector<Event>> history(kConns);
  std::vector<net::Client> clients(kConns);
  for (int c = 0; c < kConns; ++c) {  // two connections per loop
    ASSERT_TRUE(clients[static_cast<std::size_t>(c)].connect(server.port()));
    ASSERT_TRUE(wait_accepted(server, static_cast<std::uint64_t>(c) + 2));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      net::Client& client = clients[static_cast<std::size_t>(c)];
      std::vector<Event>& log = history[static_cast<std::size_t>(c)];
      util::Xoshiro256 rng(0x5eed + static_cast<std::uint64_t>(c));
      int issued = 0;
      while (issued < kOpsPerConn) {
        const int depth = 1 + static_cast<int>(rng.next_below(4));
        const std::size_t first = log.size();
        for (int d = 0; d < depth; ++d, ++issued) {
          Event e{static_cast<int>(rng.next_below(kKeys)),
                  rng.next_below(2) == 0, "", 0, 0};
          const std::string key = "hot" + std::to_string(e.key);
          if (e.put) {
            e.value = "c" + std::to_string(c) + "-" + std::to_string(issued);
            client.queue_put(key, e.value);
          } else {
            client.queue_get(key);
          }
          log.push_back(std::move(e));
        }
        const std::int64_t sent = now();
        ASSERT_GT(client.flush(), 0u);
        for (std::size_t i = first; i < log.size(); ++i) {
          net::NetResponse r;
          ASSERT_TRUE(client.recv(r));
          log[i].answered = now();
          log[i].sent = sent;
          if (!log[i].put) {
            ASSERT_EQ(r.status, net::WireStatus::kOk);
            log[i].value = r.value;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<std::vector<const Event*>> puts(kKeys);
  std::map<std::string, const Event*> put_of;
  for (const auto& log : history)
    for (const Event& e : log)
      if (e.put) {
        puts[static_cast<std::size_t>(e.key)].push_back(&e);
        put_of[e.value] = &e;
      }
  std::size_t gets = 0;
  std::size_t violations = 0;
  for (const auto& log : history) {
    for (const Event& g : log) {
      if (g.put) continue;
      ++gets;
      const auto& key_puts = puts[static_cast<std::size_t>(g.key)];
      std::string why;
      if (g.value == prefill) {
        for (const Event* q : key_puts)
          if (q->answered < g.sent) why = "prefill read after " + q->value;
      } else if (const auto it = put_of.find(g.value);
                 it == put_of.end() || it->second->key != g.key) {
        why = "value never written to this key";
      } else {
        const Event* p = it->second;
        if (p->sent > g.answered) why = "read before its PUT was sent";
        for (const Event* q : key_puts)
          if (q->sent > p->answered && q->answered < g.sent)
            why = "overwritten by " + q->value;
      }
      if (!why.empty() && ++violations <= 5)
        ADD_FAILURE() << "GET hot" << g.key << " -> " << g.value << ": "
                      << why;
    }
  }
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(gets, 0u);
  server.stop();
  svc.stop();
}

// A short read ends the read loop; the EOF behind it still arrives
// through level-triggered epoll. An op followed by shutdown(SHUT_WR) is
// answered, and then the server closes the connection.
TEST(NetLoopback, OpThenHalfCloseIsAnsweredThenClosed) {
  Store store(small_store());
  Service svc(store, 1);
  Server server(svc, Server::Options{});
  ASSERT_TRUE(server.ok());

  net::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  const std::uint32_t seq = client.queue_put("half", "v");
  ASSERT_GT(client.flush(), 0u);
  ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
  net::NetResponse r;
  ASSERT_TRUE(readable_within(client.fd(), 5000));
  ASSERT_TRUE(client.recv(r));
  EXPECT_EQ(r.seq, seq);
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_TRUE(r.created);
  ASSERT_TRUE(readable_within(client.fd(), 5000)) << "never closed";
  EXPECT_FALSE(client.recv(r));
  server.stop();
  svc.stop();
}

// The serving-robustness story: a client parked mid-pipeline holds no
// reservation and no quiescence fence — a loop runs each batch to
// completion before it touches another socket — so reclamation stays
// watchdog-clean and precise while other clients churn updates (which
// free nodes), and the final footprint is Gauge-exact. The churn runs
// pipelined and then one op per flush (one batch per PUT/DEL).
TEST(NetLoopback, StalledClientLeavesWatchdogCleanAndFootprintExact) {
  reclaim::Watchdog::reset_for_testing();
  const std::int64_t baseline = reclaim::Gauge::live();
  {
    Store store(small_store());
    Service svc(store, 2);
    Server server(svc, Server::Options{});
    ASSERT_TRUE(server.ok());

    net::Client stalled;
    ASSERT_TRUE(stalled.connect(server.port()));
    // A full op followed by a torn frame: the op is served, the torn
    // tail parks the connection mid-pipeline indefinitely.
    std::string wire;
    net::encode_put(wire, 1, "stalled-key", "v");
    wire.append("\x30\x00\x00\x00\x02", 5);  // header + 1 of 0x30 body bytes
    ASSERT_TRUE(stalled.send_raw(wire));
    net::NetResponse r;
    ASSERT_TRUE(stalled.recv(r));
    EXPECT_EQ(r.seq, 1u);

    // Arm the watchdog baselines, churn node-freeing traffic from a
    // healthy connection, then probe past the threshold: nothing may
    // register as a reclamation stall.
    const std::uint64_t t0 = 1;
    reclaim::Watchdog::check(t0);
    net::Client healthy;
    ASSERT_TRUE(healthy.connect(server.port()));
    // The parked connection holds nothing the STATS path needs either:
    // the snapshot still comes back.
    healthy.queue_stats();
    ASSERT_GT(healthy.flush(), 0u);
    ASSERT_TRUE(healthy.recv(r));
    EXPECT_EQ(r.status, net::WireStatus::kOk);
    EXPECT_NE(r.value.find("\"service\""), std::string::npos);
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 16; ++i) {
        const std::string key = "churn" + std::to_string(i);
        healthy.queue_put(key, "v" + std::to_string(round));
        healthy.queue_del(key);
      }
      ASSERT_GT(healthy.flush(), 0u);
      for (int i = 0; i < 32; ++i) ASSERT_TRUE(healthy.recv(r));
    }
    const std::uint64_t batches_before = server.counters().batches;
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 16; ++i) {
        const std::string key = "churn" + std::to_string(i);
        healthy.queue_put(key, "w" + std::to_string(round));
        ASSERT_GT(healthy.flush(), 0u);
        ASSERT_TRUE(healthy.recv(r));
        EXPECT_TRUE(r.created);
        healthy.queue_del(key);
        ASSERT_GT(healthy.flush(), 0u);
        ASSERT_TRUE(healthy.recv(r));
        EXPECT_EQ(r.status, net::WireStatus::kOk);
      }
    }
    EXPECT_EQ(server.counters().batches - batches_before, 8u * 32u);
    const reclaim::Watchdog::Report report = reclaim::Watchdog::check(
        t0 + reclaim::Watchdog::threshold_ns() + 1);
    EXPECT_EQ(report.stalled_threads, 0);
    EXPECT_EQ(reclaim::Watchdog::stall_events(), 0u);

    server.stop();
    svc.stop();
    store.finish_migration();
    // Gauge-exact footprint: one tracked node per live entry plus one
    // tracked table per shard (old tables are freed once migration
    // settles); every delete/overwrite freed its node precisely.
    const std::int64_t shards = 1 << small_store().log2_shards;
    EXPECT_EQ(reclaim::Gauge::live(),
              baseline + static_cast<std::int64_t>(store.size()) + shards);
  }
  // Store destroyed: footprint returns exactly to the baseline.
  EXPECT_EQ(reclaim::Gauge::live(), baseline);
}

}  // namespace
}  // namespace hohtm
