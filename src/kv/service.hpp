#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/metrics.hpp"
#include "kv/store.hpp"
#include "util/per_thread.hpp"

namespace hohtm::kv {

/// Per-request result code reported through the Completion record.
enum class ResultCode : std::uint8_t {
  kOk = 0,      // the op did what it says (get hit, put applied, del hit)
  kNotFound,    // get/del on an absent key
  kStopped,     // service shut down before the request ran
  kShutdown,    // submit() rejected: stop() already began (fail-fast)
};

/// Completion record a client hands in with its request and blocks on.
/// The worker fills the outputs, then publishes with one release store +
/// notify; wait() parks on the atomic (no sleeps, single-core friendly).
struct Completion {
  std::atomic<std::uint32_t> state{0};  // 0 = pending, 1 = done
  ResultCode rc = ResultCode::kStopped;
  std::string value;        // get: the value on kOk
  std::size_t scan_count = 0;  // scan: entries visited
  bool created = false;        // put: true if newly inserted
  /// scan with Request::collect: the visited (key, value) pairs in
  /// canonical scan order. The worker fills this before signalling, so
  /// the waiter owns it race-free once wait() returns.
  std::vector<std::pair<std::string, std::string>> entries;
  /// kBatch: batching-efficiency counters from Store::run_batch (ops
  /// committed inside fused groups, fused group transactions).
  std::uint64_t fused_ops = 0;
  std::uint64_t batch_txs = 0;

  void wait() noexcept {
    while (state.load(std::memory_order_acquire) == 0) state.wait(0);
  }
  void signal(ResultCode code) noexcept {
    rc = code;
    state.store(1, std::memory_order_release);
    state.notify_all();
  }
  void reset() noexcept {
    state.store(0, std::memory_order_relaxed);
    rc = ResultCode::kStopped;
    value.clear();
    scan_count = 0;
    created = false;
    entries.clear();
    fused_ops = 0;
    batch_txs = 0;
  }
};

/// One submitted operation. kScan visits up to scan_limit entries
/// starting at `key`'s position and reports the count; set `collect`
/// to also copy the entries into the Completion (a streaming layer
/// would chunk them — collect keeps the record bounded by scan_limit).
struct Request {
  OpCode op = OpCode::kGet;
  std::string key;
  std::string value;
  std::size_t scan_limit = 0;
  Completion* done = nullptr;
  bool collect = false;
  /// kBatch: the pipelined ops, owned by the submitter and alive until
  /// `done` signals; the worker writes each op's result fields in place.
  BatchOp* batch = nullptr;
  std::uint32_t batch_len = 0;
};

/// Bounded MPMC submission ring (Vyukov per-cell sequence numbers), with
/// atomic wait/notify instead of spinning when full or empty: producers
/// park on the cell their ticket maps to until the consumer recycles it,
/// and vice versa — no sleeps, no condition variables on the hot path.
class RequestRing {
 public:
  explicit RequestRing(std::size_t log2_capacity)
      : mask_((std::size_t{1} << log2_capacity) - 1),
        cells_(std::make_unique<Cell[]>(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

  void push(Request req) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        // Ring full: this cell still holds an unconsumed request. Park
        // until the consumer bumps its sequence, then re-read the tail.
        cell.seq.wait(seq, std::memory_order_acquire);
        pos = tail_.load(std::memory_order_relaxed);
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    Cell& cell = cells_[pos & mask_];
    cell.req = std::move(req);
    cell.seq.store(pos + 1, std::memory_order_release);
    cell.seq.notify_all();
  }

  Request pop() {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const std::int64_t dif = static_cast<std::int64_t>(seq) -
                               static_cast<std::int64_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        // Ring empty: park until a producer publishes into this cell.
        cell.seq.wait(seq, std::memory_order_acquire);
        pos = head_.load(std::memory_order_relaxed);
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    return take(pos);
  }

  /// Non-blocking pop for shutdown draining; false when the ring is
  /// empty (or the next cell is still being written by a producer).
  bool try_pop(Request& out) {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const std::int64_t dif = static_cast<std::int64_t>(seq) -
                               static_cast<std::int64_t>(pos + 1);
      if (dif < 0) return false;
      if (dif == 0 && head_.compare_exchange_weak(
                          pos, pos + 1, std::memory_order_relaxed)) {
        out = take(pos);
        return true;
      }
      pos = head_.load(std::memory_order_relaxed);
    }
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    Request req;
  };

  Request take(std::uint64_t pos) {
    Cell& cell = cells_[pos & mask_];
    Request req = std::move(cell.req);
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    cell.seq.notify_all();
    return req;
  }

  std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(util::kCacheLineSize) std::atomic<std::uint64_t> tail_{0};  // producers
  alignas(util::kCacheLineSize) std::atomic<std::uint64_t> head_{0};  // consumers
};

/// Request-serving front-end: clients submit Requests into the MPMC
/// ring; worker threads pop, run the op against the Store, and signal
/// the client's Completion. Shutdown drains: stop() enqueues one kStop
/// sentinel per worker, so every request submitted before stop() is
/// served, and requests still queued behind the sentinels complete with
/// kStopped rather than hanging their clients.
template <class TM, class RR>
class Service {
 public:
  using StoreType = Store<TM, RR>;

  struct Stats {
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t dels = 0;
    std::uint64_t scans = 0;
  };

  Service(StoreType& store, std::size_t workers, std::size_t log2_queue = 6)
      : store_(store), ring_(log2_queue) {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      workers_.emplace_back([this] { serve(); });
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  ~Service() { stop(); }

  /// Enqueue a request. `req.done` must outlive the completion signal.
  /// Blocks while the ring is full; callable from any number of client
  /// threads. A submit that races stop() fails fast: it returns false
  /// and signals `req.done` with kShutdown instead of parking the
  /// request (and its waiter) behind a drained ring forever.
  bool submit(Request req) {
    return gated(req, [&] { ring_.push(std::move(req)); });
  }

  /// Run one request to completion on the calling thread instead of a
  /// worker: `req.done` has signalled by the time this returns. Passes
  /// the same stop() gate as submit() — after stop() begins it returns
  /// false and answers kShutdown without touching the store, and stop()
  /// waits for an op already past the gate — and counts in stats().
  /// Every net event loop runs its pipeline batches this way
  /// (docs/SERVING.md). Never pass kStop.
  bool run_here(Request req) {
    return gated(req, [&] { execute(req, stats_.mine()); });
  }

  /// The worker count this service was built with; net::Server runs one
  /// event loop per worker.
  std::size_t workers() const noexcept { return workers_.size(); }

  /// Convenience synchronous client calls (one Completion on the stack).
  ResultCode get(std::string key, std::string& value_out) {
    Completion done;
    submit(Request{OpCode::kGet, std::move(key), {}, 0, &done});
    done.wait();
    if (done.rc == ResultCode::kOk) value_out = std::move(done.value);
    return done.rc;
  }

  ResultCode put(std::string key, std::string value, bool* created = nullptr) {
    Completion done;
    submit(Request{OpCode::kPut, std::move(key), std::move(value), 0, &done});
    done.wait();
    if (created != nullptr) *created = done.created;
    return done.rc;
  }

  ResultCode del(std::string key) {
    Completion done;
    submit(Request{OpCode::kDel, std::move(key), {}, 0, &done});
    done.wait();
    return done.rc;
  }

  ResultCode scan(std::string start_key, std::size_t limit,
                  std::size_t& count_out) {
    Completion done;
    submit(Request{OpCode::kScan, std::move(start_key), {}, limit, &done});
    done.wait();
    count_out = done.scan_count;
    return done.rc;
  }

  /// Entry-collecting scan: like scan(), but the visited (key, value)
  /// pairs land in `entries_out` in canonical scan order. The count is
  /// entries_out.size().
  ResultCode scan(std::string start_key, std::size_t limit,
                  std::vector<std::pair<std::string, std::string>>&
                      entries_out) {
    Completion done;
    submit(Request{OpCode::kScan, std::move(start_key), {}, limit, &done,
                   /*collect=*/true});
    done.wait();
    entries_out = std::move(done.entries);
    return done.rc;
  }

  /// Stop and join the workers. Idempotent; implied by the destructor.
  /// Every request whose submit() won the race against stop() is served
  /// or answered kStopped; a submit() that loses is rejected with
  /// kShutdown — either way no waiter hangs.
  void stop() {
    if (stopped_.exchange(true, std::memory_order_seq_cst)) return;
    // Wait out in-flight submit()s and run_here()s (the other half of
    // the gated() handshake) so the sentinels land after every accepted
    // request and no inline op is still inside the store.
    for (;;) {
      const std::size_t in_flight =
          submitters_.load(std::memory_order_seq_cst);
      if (in_flight == 0) break;
      submitters_.wait(in_flight, std::memory_order_seq_cst);
    }
    for (std::size_t i = 0; i < workers_.size(); ++i)
      ring_.push(Request{OpCode::kStop, {}, {}, 0, nullptr});
    for (std::thread& w : workers_) w.join();
    Request leftover;
    while (ring_.try_pop(leftover))
      if (leftover.done != nullptr) leftover.done->signal(ResultCode::kStopped);
  }

  Stats stats() const noexcept {
    Stats total;
    for (const auto& s : stats_.live()) {
      total.gets += s->gets.load(std::memory_order_relaxed);
      total.puts += s->puts.load(std::memory_order_relaxed);
      total.dels += s->dels.load(std::memory_order_relaxed);
      total.scans += s->scans.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// One metrics-plane snapshot document (counters, gauges, abort
  /// attribution, contention heatmap, watchdog), prefixed with this
  /// service's own request counters. A serving layer exposes this as its
  /// stats endpoint; callable any time, from any thread.
  std::string stats_snapshot() const {
    const Stats s = stats();
    std::string doc = "{\"service\":{\"gets\":" + std::to_string(s.gets) +
                      ",\"puts\":" + std::to_string(s.puts) +
                      ",\"dels\":" + std::to_string(s.dels) +
                      ",\"scans\":" + std::to_string(s.scans) +
                      "},\"metrics\":";
    doc += harness::metrics_snapshot_json();
    doc += '}';
    return doc;
  }

 private:
  struct AtomicStats {
    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> puts{0};
    std::atomic<std::uint64_t> dels{0};
    std::atomic<std::uint64_t> scans{0};
  };

  /// The submit()/run_here() side of the Dekker handshake with stop():
  /// the caller publishes itself then checks the flag; stop() publishes
  /// the flag then waits for the caller count to drain. seq_cst on both
  /// sides so one of the two always observes the other — acquire/release
  /// alone would let both loads pass both stores and hand a request to a
  /// ring no worker will drain (or to a store being torn down).
  template <class Body>
  bool gated(Request& req, Body&& body) {
    submitters_.fetch_add(1, std::memory_order_seq_cst);
    if (stopped_.load(std::memory_order_seq_cst)) {
      submitters_.fetch_sub(1, std::memory_order_seq_cst);
      submitters_.notify_all();
      if (req.done != nullptr) req.done->signal(ResultCode::kShutdown);
      return false;
    }
    body();
    submitters_.fetch_sub(1, std::memory_order_seq_cst);
    // seq_cst so this load cannot stay stale past stop()'s flag store:
    // either it sees the flag (and notifies the waiter), or the whole
    // decrement is seq_cst-before stop()'s count probe, which then reads
    // zero and never parks. A weaker order could do neither — skipping
    // the notify a parked stop() depends on.
    if (stopped_.load(std::memory_order_seq_cst)) submitters_.notify_all();
    return true;
  }

  void serve() {
    AtomicStats& stats = stats_.mine();
    for (;;) {
      Request req = ring_.pop();
      if (req.op == OpCode::kStop) return;  // one sentinel per worker
      execute(req, stats);
    }
  }

  /// Run one request against the store and signal its Completion — the
  /// single op switch behind both the workers and run_here().
  void execute(Request& req, AtomicStats& stats) {
    Completion* done = req.done;
    switch (req.op) {
      case OpCode::kGet: {
        stats.gets.fetch_add(1, std::memory_order_relaxed);
        std::string value;
        const bool hit = store_.get(req.key, value);
        if (done != nullptr) {
          done->value = std::move(value);
          done->signal(hit ? ResultCode::kOk : ResultCode::kNotFound);
        }
        break;
      }
      case OpCode::kPut: {
        stats.puts.fetch_add(1, std::memory_order_relaxed);
        const bool created = store_.put(req.key, req.value);
        if (done != nullptr) {
          done->created = created;
          done->signal(ResultCode::kOk);
        }
        break;
      }
      case OpCode::kDel: {
        stats.dels.fetch_add(1, std::memory_order_relaxed);
        const bool hit = store_.del(req.key);
        if (done != nullptr)
          done->signal(hit ? ResultCode::kOk : ResultCode::kNotFound);
        break;
      }
      case OpCode::kScan: {
        stats.scans.fetch_add(1, std::memory_order_relaxed);
        std::size_t n = 0;
        if (req.collect && done != nullptr) {
          done->entries.clear();
          n = store_.scan_from(
              req.key, req.scan_limit,
              [done](const std::string& k, const std::string& v) {
                done->entries.emplace_back(k, v);
              });
        } else {
          n = store_.scan_from(
              req.key, req.scan_limit,
              [](const std::string&, const std::string&) {});
        }
        if (done != nullptr) {
          done->scan_count = n;
          done->signal(ResultCode::kOk);
        }
        break;
      }
      case OpCode::kBatch: {
        // Pipelined group: stats ops answer locally, everything else
        // goes through Store::run_batch, which fuses consecutive
        // same-shard runs into single window transactions.
        BatchCounters bc;
        BatchOp* ops = req.batch;
        const std::size_t n = req.batch_len;
        std::size_t i = 0;
        while (i < n) {
          if (ops[i].op == OpCode::kStats) {
            ops[i].out = stats_snapshot();
            ops[i].hit = true;
            ++i;
            continue;
          }
          std::size_t j = i;
          while (j < n && ops[j].op != OpCode::kStats) ++j;
          store_.run_batch(ops + i, j - i, bc);
          i = j;
        }
        for (i = 0; i < n; ++i) {
          switch (ops[i].op) {
            case OpCode::kGet:
              stats.gets.fetch_add(1, std::memory_order_relaxed);
              break;
            case OpCode::kPut:
              stats.puts.fetch_add(1, std::memory_order_relaxed);
              break;
            case OpCode::kDel:
              stats.dels.fetch_add(1, std::memory_order_relaxed);
              break;
            case OpCode::kScan:
              stats.scans.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              break;
          }
        }
        if (done != nullptr) {
          done->fused_ops = bc.fused_ops;
          done->batch_txs = bc.batch_txs;
          done->signal(ResultCode::kOk);
        }
        break;
      }
      case OpCode::kStats: {
        if (done != nullptr) {
          done->value = stats_snapshot();
          done->signal(ResultCode::kOk);
        }
        break;
      }
      case OpCode::kStop:
        break;  // consumed by serve(); never passed to run_here()
    }
  }

  StoreType& store_;
  RequestRing ring_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> submitters_{0};  // callers inside the gate
  // One cell per registry slot: workers and run_here() callers alike
  // count into their own, so each cell has one writer.
  util::PerThread<AtomicStats> stats_;
};

}  // namespace hohtm::kv
