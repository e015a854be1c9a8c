// The request-serving front-end: submission ring semantics (tiny
// capacity forces wraparound and producer parking), synchronous client
// calls, result codes, concurrent clients, and drained shutdown. All
// blocking is atomic wait/notify — no sleeps, no timing assertions.
#include "kv/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rr.hpp"

namespace hohtm {
namespace {

using TM = tm::Norec;
using RR = rr::RrV<TM>;
using Store = kv::Store<TM, RR>;
using Service = kv::Service<TM, RR>;

TEST(KvRequestRing, FifoThroughWraparound) {
  kv::RequestRing ring(2);  // capacity 4: wraps several times below
  ASSERT_EQ(ring.capacity(), 4u);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i)
      ring.push(kv::Request{kv::OpCode::kPut,
                            "k" + std::to_string(round * 4 + i), "", 0,
                            nullptr});
    for (int i = 0; i < 4; ++i) {
      const kv::Request req = ring.pop();
      EXPECT_EQ(req.key, "k" + std::to_string(round * 4 + i));
    }
  }
  kv::Request none;
  EXPECT_FALSE(ring.try_pop(none));
}

TEST(KvRequestRing, FullRingParksProducerUntilConsumed) {
  kv::RequestRing ring(1);  // capacity 2
  ring.push(kv::Request{kv::OpCode::kGet, "a", "", 0, nullptr});
  ring.push(kv::Request{kv::OpCode::kGet, "b", "", 0, nullptr});
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ring.push(kv::Request{kv::OpCode::kGet, "c", "", 0, nullptr});
    third_pushed.store(true);
    third_pushed.notify_all();
  });
  // The producer is blocked on the full ring; popping one slot releases
  // it. (No assertion on "still blocked" — that would be a timing test.)
  EXPECT_EQ(ring.pop().key, "a");
  third_pushed.wait(false);
  producer.join();
  EXPECT_EQ(ring.pop().key, "b");
  EXPECT_EQ(ring.pop().key, "c");
}

TEST(KvService, SynchronousCallsAndResultCodes) {
  Store store;
  Service svc(store, 2, 3);
  std::string value;
  EXPECT_EQ(svc.get("missing", value), kv::ResultCode::kNotFound);
  bool created = false;
  EXPECT_EQ(svc.put("a", "1", &created), kv::ResultCode::kOk);
  EXPECT_TRUE(created);
  EXPECT_EQ(svc.put("a", "2", &created), kv::ResultCode::kOk);
  EXPECT_FALSE(created);
  EXPECT_EQ(svc.get("a", value), kv::ResultCode::kOk);
  EXPECT_EQ(value, "2");
  EXPECT_EQ(svc.del("a"), kv::ResultCode::kOk);
  EXPECT_EQ(svc.del("a"), kv::ResultCode::kNotFound);
  for (int i = 0; i < 20; ++i)
    svc.put("scan" + std::to_string(i), "v", nullptr);
  std::size_t count = 0;
  EXPECT_EQ(svc.scan("", 1000, count), kv::ResultCode::kOk);
  EXPECT_GT(count, 0u);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.gets, 2u);
  EXPECT_EQ(stats.puts, 22u);
  EXPECT_EQ(stats.dels, 2u);
  EXPECT_EQ(stats.scans, 1u);
}

TEST(KvService, ConcurrentClientsThroughATinyRing) {
  Store store;
  Service svc(store, 2, 1);  // queue capacity 2: constant backpressure
  const int kClients = 3;
  const int kOpsEach = 200;
  std::vector<std::thread> clients;
  std::atomic<int> hits{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&svc, &hits, c] {
      std::string value;
      for (int i = 0; i < kOpsEach; ++i) {
        const std::string key =
            "c" + std::to_string(c) + "-" + std::to_string(i % 17);
        svc.put(key, std::to_string(i), nullptr);
        if (svc.get(key, value) == kv::ResultCode::kOk) hits.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  // Each client reads back its own key right after writing it; no other
  // client touches it, so every one of these reads must hit.
  EXPECT_EQ(hits.load(), kClients * kOpsEach);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.puts, static_cast<std::uint64_t>(kClients * kOpsEach));
  EXPECT_EQ(stats.gets, static_cast<std::uint64_t>(kClients * kOpsEach));
  svc.stop();
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kClients * 17));
}

TEST(KvService, StopIsIdempotentAndServesEverythingSubmitted) {
  Store store;
  auto svc = std::make_unique<Service>(store, 1, 4);
  for (int i = 0; i < 10; ++i)
    svc->put("k" + std::to_string(i), "v", nullptr);
  svc->stop();
  svc->stop();          // idempotent
  svc.reset();          // destructor after stop: no double join
  EXPECT_EQ(store.size(), 10u);
}

TEST(KvService, CollectingScanReturnsEntriesInCanonicalOrder) {
  Store store;
  Service svc(store, 2, 3);
  std::vector<std::string> keys;
  for (int i = 0; i < 40; ++i) {
    keys.push_back("ce" + std::to_string(i));
    svc.put(keys.back(), "v" + std::to_string(i), nullptr);
  }
  // The sorted mirror: the store's canonical (hash, key) order.
  std::sort(keys.begin(), keys.end(), [](const std::string& a,
                                         const std::string& b) {
    return kv::detail::precedes(kv::detail::hash_bytes(a), a,
                                kv::detail::hash_bytes(b), b);
  });
  // Scan from the canonical-first key (scan_from("") would start at
  // the empty string's own hash position, not the beginning).
  std::vector<std::pair<std::string, std::string>> entries;
  EXPECT_EQ(svc.scan(keys[0], 1000, entries), kv::ResultCode::kOk);
  ASSERT_EQ(entries.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(entries[i].first, keys[i]) << "position " << i;
  }
  // Ranged + bounded: starts at the requested key inclusive, stops at
  // the limit, and the values ride along with their keys.
  entries.clear();
  EXPECT_EQ(svc.scan(keys[10], 5, entries), kv::ResultCode::kOk);
  ASSERT_EQ(entries.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(entries[i].first, keys[10 + i]);
    const std::string suffix = entries[i].first.substr(2);
    EXPECT_EQ(entries[i].second, "v" + suffix);
  }
  // The count-only overload agrees with the collecting one, and both
  // count as scans in the service stats.
  std::size_t count = 0;
  EXPECT_EQ(svc.scan(keys[10], 5, count), kv::ResultCode::kOk);
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(svc.stats().scans, 3u);
}

TEST(KvService, LargeValuesRoundTripThroughTheRing) {
  Store store;
  Service svc(store, 2, 2);
  const std::string big(4096 + 500, 'z');
  svc.put("big", big, nullptr);
  std::string value;
  EXPECT_EQ(svc.get("big", value), kv::ResultCode::kOk);
  EXPECT_EQ(value, big);
}

// The submit-after-stop hazard, closed: once stop() has begun, submit()
// fails fast — no push into a ring nobody drains — and the request's
// Completion still signals, with the dedicated kShutdown code. run_here()
// passes the same gate: served on the caller's thread (and counted in
// stats) before stop(), kShutdown without touching the store after.
TEST(KvService, SubmitAfterStopFailsFastWithShutdown) {
  Store store;
  Service svc(store, 1, 3);
  svc.put("pre", "v", nullptr);
  {
    kv::Completion done;
    kv::Request req;
    req.op = kv::OpCode::kPut;
    req.key = "here";
    req.value = "h";
    req.done = &done;
    EXPECT_TRUE(svc.run_here(std::move(req)));
    EXPECT_EQ(done.state.load(), 1u);  // signalled before returning
    EXPECT_EQ(done.rc, kv::ResultCode::kOk);
    EXPECT_TRUE(done.created);
    EXPECT_EQ(svc.stats().puts, 2u);
  }
  svc.stop();
  {
    kv::BatchOp op;
    op.op = kv::OpCode::kDel;
    op.key = "here";
    kv::Completion done;
    kv::Request req;
    req.op = kv::OpCode::kBatch;
    req.done = &done;
    req.batch = &op;
    req.batch_len = 1;
    EXPECT_FALSE(svc.run_here(std::move(req)));
    EXPECT_EQ(done.state.load(), 1u);
    EXPECT_EQ(done.rc, kv::ResultCode::kShutdown);
    EXPECT_FALSE(op.hit);  // never reached the store
    EXPECT_EQ(store.size(), 2u);
  }
  kv::Completion done;
  kv::Request req;
  req.op = kv::OpCode::kGet;
  req.key = "pre";
  req.done = &done;
  EXPECT_FALSE(svc.submit(std::move(req)));
  done.wait();  // already signalled: returns immediately, no worker left
  EXPECT_EQ(done.rc, kv::ResultCode::kShutdown);
  // The synchronous wrappers surface the same code instead of hanging.
  std::string value;
  EXPECT_EQ(svc.get("pre", value), kv::ResultCode::kShutdown);
  EXPECT_EQ(svc.put("x", "y", nullptr), kv::ResultCode::kShutdown);
  EXPECT_EQ(svc.del("pre"), kv::ResultCode::kShutdown);
}

// Clients racing stop(): every synchronous call must return — served
// (kOk/kNotFound), drained at shutdown (kStopped), or rejected at the
// gate (kShutdown) — and nothing may deadlock against the drain loop.
// Odd clients run their ops inline with run_here(), which is served or
// rejected but never drained: stop() waits for an op past the gate.
TEST(KvService, SubmittersRacingStopAlwaysComplete) {
  for (int round = 0; round < 20; ++round) {
    Store store;
    Service svc(store, 2, 2);
    constexpr int kClients = 4;
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    std::atomic<int> rejected{0};
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        go.wait(false);
        for (int i = 0; i < 50; ++i) {
          kv::ResultCode rc = kv::ResultCode::kOk;
          if (c % 2 == 0) {
            rc = svc.put("r" + std::to_string(c), std::to_string(i), nullptr);
          } else {
            kv::Completion done;
            kv::Request req;
            req.op = kv::OpCode::kPut;
            req.key = "r" + std::to_string(c);
            req.value = std::to_string(i);
            req.done = &done;
            const bool ran = svc.run_here(std::move(req));
            ASSERT_EQ(done.state.load(), 1u);
            rc = done.rc;
            ASSERT_EQ(ran, rc != kv::ResultCode::kShutdown);
            ASSERT_NE(rc, kv::ResultCode::kStopped);
          }
          ASSERT_TRUE(rc == kv::ResultCode::kOk ||
                      rc == kv::ResultCode::kStopped ||
                      rc == kv::ResultCode::kShutdown);
          if (rc == kv::ResultCode::kShutdown) {
            rejected.fetch_add(1);
            break;  // the service is gone; later calls would all reject
          }
        }
      });
    }
    go.store(true);
    go.notify_all();
    svc.stop();
    for (auto& t : clients) t.join();
  }
}

// The serving tier's bridge into the store: one kBatch request carrying
// a pipeline of ops executes them in order, reports per-op results, and
// fuses consecutive same-shard runs (single shard here, so the whole
// batch is one run) into fewer transactions than ops.
TEST(KvService, BatchRequestExecutesInOrderAndFuses) {
  Store::Options opt;
  opt.log2_shards = 0;
  opt.window = 16;
  opt.fusion_cap = 16;
  Store store(opt);
  Service svc(store, 1, 3);
  // The contention-gated tuner grants fusion budgets only after a clean
  // streak (ds::WindowTuner::kFuseStreak) — warm the lone worker past it.
  for (int i = 0; i < 16; ++i)
    svc.put("warm" + std::to_string(i), "v", nullptr);
  std::vector<kv::BatchOp> ops(6);
  ops[0] = {kv::OpCode::kPut, "bk", "v1"};
  ops[1] = {kv::OpCode::kGet, "bk"};
  ops[2] = {kv::OpCode::kPut, "bk", "v2"};   // overwrite, in order
  ops[3] = {kv::OpCode::kGet, "bk"};
  ops[4] = {kv::OpCode::kDel, "bk"};
  ops[5] = {kv::OpCode::kGet, "bk"};
  kv::Completion done;
  kv::Request req;
  req.op = kv::OpCode::kBatch;
  req.done = &done;
  req.batch = ops.data();
  req.batch_len = static_cast<std::uint32_t>(ops.size());
  ASSERT_TRUE(svc.submit(std::move(req)));
  done.wait();
  EXPECT_EQ(done.rc, kv::ResultCode::kOk);
  EXPECT_TRUE(ops[0].hit);   // created
  EXPECT_TRUE(ops[1].hit);
  EXPECT_EQ(ops[1].out, "v1");
  EXPECT_FALSE(ops[2].hit);  // overwrite, not a create
  EXPECT_EQ(ops[3].out, "v2");
  EXPECT_TRUE(ops[4].hit);
  EXPECT_FALSE(ops[5].hit);  // deleted two ops earlier
  // Program order held AND the run fused: 6 ops, fewer transactions.
  EXPECT_GT(done.fused_ops, 0u);
  EXPECT_LT(done.batch_txs, ops.size());
}

}  // namespace
}  // namespace hohtm
