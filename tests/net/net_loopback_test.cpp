// End-to-end serving-tier tests over real loopback sockets
// (docs/SERVING.md): pipelined multi-connection runs checked against a
// std::map differential oracle, in-order completion, per-connection
// backpressure, torn writes, oversized-frame rejection, idle timeout,
// the event loop's poll-then-park rule, the wake hook's eventfd
// lifetime, and the stalled-client reclamation scenario — a connection
// parked mid-pipeline must leave the reclamation-stall watchdog clean
// and the footprint Gauge-exact while other clients churn.

#include "net/server.hpp"

#include <gtest/gtest.h>
#include <sys/eventfd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
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

// Multi-connection pipelined mixed-op run against per-connection
// std::map oracles (disjoint keyspaces make each oracle independent),
// with the in-order-completion assertion: every response carries the
// next expected seq for its connection, strictly increasing. Depth 16
// sends every batch through the ring to the workers; depth 1 runs every
// batch inline on the loop thread.
void run_pipelined_oracle(int pipeline) {
  SCOPED_TRACE("pipeline depth " + std::to_string(pipeline));
  Store store(small_store());
  Service svc(store, 2);
  Server server(svc, Server::Options{});
  ASSERT_TRUE(server.ok());

  constexpr int kConns = 4;
  const int rounds = 192 / pipeline;
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
  const Server::Counters c = server.counters();
  EXPECT_GE(c.accepted, static_cast<std::uint64_t>(kConns));
  EXPECT_EQ(c.batches, static_cast<std::uint64_t>(kConns * rounds));
  // One flush is one loopback segment, so each pipeline read is exactly
  // one flush: a lone op always runs inline, a full pipeline never does.
  EXPECT_EQ(c.inline_batches, pipeline == 1 ? c.batches : 0u);
  EXPECT_EQ(svc.stats().gets + svc.stats().puts + svc.stats().dels,
            static_cast<std::uint64_t>(kConns * rounds * pipeline));
  server.stop();
  svc.stop();
}

TEST(NetLoopback, MultiConnectionPipelinedDifferentialOracle) {
  run_pipelined_oracle(16);
  run_pipelined_oracle(1);
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
  for (int i = 0; i < 8; ++i) {  // inline single ops
    client.queue_put("idle" + std::to_string(i), "v");
    ASSERT_GT(client.flush(), 0u);
    ASSERT_TRUE(client.recv(r));
  }
  client.queue_get("idle0");  // and one ring batch
  client.queue_get("idle1");
  ASSERT_GT(client.flush(), 0u);
  ASSERT_TRUE(client.recv(r));
  ASSERT_TRUE(client.recv(r));

  // Let the window lapse: wait (bounded) until loop_polls holds still.
  Server::Counters settled = server.counters();
  for (int i = 0; i < 200; ++i) {
    idle_for(std::chrono::milliseconds(5));
    const Server::Counters now = server.counters();
    if (now.loop_polls == settled.loop_polls) break;
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

// A ring batch whose worker is held mid-transaction for longer than the
// poll window: the loop parks during the hold, and the completion still
// reaches it through the worker's eventfd write, answered in order. The
// loop's fallback wake is its 100 ms park timeout, so a response within
// 50 ms of the release came through the eventfd.
TEST(NetLoopback, RingBatchOutlivingPollWindowIsAnswered) {
  auto opt = small_store();
  opt.fusion_cap = 0;  // every batch op runs its own transaction
  Store store(opt);
  Gate gate;
  std::atomic<bool> held{false};
  store.set_fail_hook_for_testing([&] {
    if (!held.exchange(true, std::memory_order_relaxed)) gate.hold();
  });
  Service svc(store, 1);
  Server server(svc, Server::Options{});
  ASSERT_TRUE(server.ok());

  net::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  const std::uint32_t s1 = client.queue_put("held-a", "1");
  const std::uint32_t s2 = client.queue_put("held-b", "2");
  ASSERT_GT(client.flush(), 0u);
  ASSERT_TRUE(gate.wait_entered());
  const std::uint64_t parks_at_hold = server.counters().loop_parks;
  for (int i = 0; i < 1000; ++i) {
    if (server.counters().loop_parks > parks_at_hold) break;
    idle_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t parks_in_hold =
      server.counters().loop_parks - parks_at_hold;
  EXPECT_GE(parks_in_hold, 1u);
  EXPECT_EQ(server.counters().batches, 1u);
  EXPECT_EQ(server.counters().inline_batches, 0u);

  const auto released = std::chrono::steady_clock::now();
  gate.release();
  net::NetResponse r;
  ASSERT_TRUE(client.recv(r));
  EXPECT_EQ(r.seq, s1);
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_TRUE(r.created);
  ASSERT_TRUE(client.recv(r));
  const auto answered = std::chrono::steady_clock::now();
  EXPECT_EQ(r.seq, s2);
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_TRUE(r.created);
  EXPECT_LT(answered - released, std::chrono::milliseconds(50));
  server.stop();
  svc.stop();
}

// A worker signals a ring batch's Completion and only then runs the wake
// hook's eventfd write. stop() must not close the eventfd in between:
// the number could be reused and the write would land in a stranger's
// descriptor. Hold a hook before its write, let stop() run, claim every
// descriptor number it could have freed, then release the hook: none of
// the claimed descriptors may receive the write.
TEST(NetLoopback, StopWaitsForWakeHookBeforeClosingEventfd) {
  Store store(small_store());
  Service svc(store, 1);
  Server server(svc, Server::Options{});
  ASSERT_TRUE(server.ok());
  Gate gate;
  server.set_wake_delay_for_testing([&] { gate.hold(); });

  net::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  client.queue_put("hook-a", "1");
  client.queue_put("hook-b", "2");
  ASSERT_GT(client.flush(), 0u);
  ASSERT_TRUE(gate.wait_entered());
  net::NetResponse r;
  ASSERT_TRUE(client.recv(r));  // harvested by polling or the park timeout
  ASSERT_TRUE(client.recv(r));

  std::mutex m;
  std::condition_variable cv;
  bool stopped = false;
  std::thread stopper([&] {
    server.stop();
    std::lock_guard<std::mutex> lock(m);
    stopped = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait_for(lock, std::chrono::milliseconds(50), [&] { return stopped; });
    EXPECT_FALSE(stopped);  // still waiting for the held hook
  }
  std::vector<int> probes;
  for (int i = 0; i < 16; ++i)
    probes.push_back(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  gate.release();
  stopper.join();
  svc.stop();  // joins the worker: its hook has returned
  for (const int fd : probes) {
    ASSERT_GE(fd, 0);
    std::uint64_t count = 0;
    EXPECT_LT(::read(fd, &count, sizeof(count)), 0)
        << "a wake write landed in reused descriptor " << fd;
    ::close(fd);
  }
}

// The serving-robustness story: a client parked mid-pipeline holds no
// reservation and no quiescence fence — workers never block on a socket,
// and an inline op finishes before the loop touches another socket — so
// reclamation stays watchdog-clean and precise while other clients churn
// updates (which free nodes), and the final footprint is Gauge-exact.
// The churn runs pipelined (ring to the workers) and then one op per
// flush (every PUT/DEL commits on the loop thread).
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
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 16; ++i) {
        const std::string key = "churn" + std::to_string(i);
        healthy.queue_put(key, "v" + std::to_string(round));
        healthy.queue_del(key);
      }
      ASSERT_GT(healthy.flush(), 0u);
      for (int i = 0; i < 32; ++i) ASSERT_TRUE(healthy.recv(r));
    }
    const std::uint64_t inline_before = server.counters().inline_batches;
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
    EXPECT_EQ(server.counters().inline_batches - inline_before, 8u * 32u);
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
