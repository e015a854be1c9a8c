#pragma once

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kv/service.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "util/backoff.hpp"
#include "util/metrics.hpp"

namespace hohtm::net {

/// TCP front door over kv::Service (docs/SERVING.md): K event-loop
/// threads, K being the worker count the Service was built with. Each
/// loop runs a level-triggered epoll over its own wake eventfd and its
/// own share of the connections; loop 0 also owns the listener and hands
/// the n-th accepted connection to loop n % K. Reads decode
/// incrementally (torn frames and coalesced reads are the normal case),
/// and decoded ops leave as kv::OpCode::kBatch requests of up to
/// max_inflight_ops ops — the batch boundary the store fuses into one
/// window transaction per same-shard run. The loop runs every batch,
/// SCAN and STATS included, to completion itself (Service::run_here) and
/// then encodes its responses, so a connection's pipeline executes in
/// program order and its responses leave in submission order. One pass
/// of a loop starts at most one batch per connection, so a client that
/// pipelines thousands of ops cannot starve its loop-mates. After any
/// event or batch the loop polls (epoll_wait with a zero timeout) until
/// kPollWindowNs passes with nothing new, and only then parks in a
/// blocking epoll_wait: the next request of a depth-1 client then finds
/// the loop awake instead of paying a thread wake-up. Backpressure is a
/// bounded staged backlog per connection: once it holds max_inflight_ops
/// ops the connection's EPOLLIN is dropped until batches drain it, so a
/// client that outruns the store parks in its socket buffer instead of
/// ballooning server memory. A batch runs to completion before its loop
/// touches another socket or enters epoll_wait, so a stalled client
/// cannot hold a reservation or a quiescence fence — the
/// precise-reclamation argument the stalled-client test pins down. The
/// price: a freeing commit's fence waits for every in-flight
/// transaction, so a loop preempted inside a transaction pauses the
/// freeing commits of every loop.
template <class TM, class RR>
class Server {
 public:
  struct Options {
    std::uint16_t port = 0;               // 0 = ephemeral loopback port
    std::size_t max_inflight_ops = 64;    // per-connection batch and backlog cap
    std::uint32_t max_frame_bytes = kMaxFrameBytes;
    std::uint64_t idle_timeout_ms = 0;    // 0 = never time out
  };

  /// Monotonic counters summed over the loops, readable any time.
  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t batches = 0;     // pipeline batches run
    std::uint64_t fused_ops = 0;   // ops committed inside fused groups
    std::uint64_t batch_txs = 0;   // fused group transactions
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t rejected_frames = 0;  // oversized / malformed
    std::uint64_t timeouts = 0;         // idle connections reaped
    std::uint64_t max_inflight = 0;     // largest batch in ops, any conn
    std::uint64_t loop_parks = 0;  // blocking epoll_wait calls
    std::uint64_t loop_polls = 0;  // zero-timeout epoll_wait passes
  };

  /// How long a loop keeps polling after the last event before it
  /// parks. On a 4-vCPU Firecracker guest (no cpuidle driver, so an idle
  /// vCPU halts) waking a thread blocked on it costs ~10 us; a loopback
  /// ping-pong took 30-31 us per round trip against a server blocked in
  /// epoll_wait and 18-22 us against one polling. 50 us and 200 us both
  /// kept that gain on perfbench serve-rw-d1; 25 us was too short (p90
  /// 37-41 us vs 30-32 us at 200 us). The price is at most one window of
  /// one core's time per loop per burst of traffic.
  static constexpr std::uint64_t kPollWindowNs = 200'000;

  Server(kv::Service<TM, RR>& service, Options opt)
      : service_(service), opt_(opt) {
    listen_fd_ = listen_tcp(opt_.port, &port_);
    ok_ = listen_fd_ >= 0;
    const std::size_t k = std::max<std::size_t>(service_.workers(), 1);
    for (std::size_t i = 0; i < k; ++i) {
      Loop& l = *loops_.emplace_back(std::make_unique<Loop>());
      l.wake_fd = make_eventfd();
      l.epoll_fd = epoll_create1(EPOLL_CLOEXEC);
      ok_ = ok_ && l.wake_fd >= 0 && l.epoll_fd >= 0;
    }
    if (!ok_) return;
    arm(*loops_[0], listen_fd_);
    for (auto& l : loops_) {
      arm(*l, l->wake_fd);
      l->thread = std::thread([this, &loop = *l] { run(loop); });
    }
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ~Server() { stop(); }

  bool ok() const noexcept { return ok_; }
  std::uint16_t port() const noexcept { return port_; }

  /// Stop accepting, join the loops, and close every socket, including
  /// connections accepted but not yet adopted by their loop. No batch is
  /// in flight once a loop has returned, so nothing is waited out. Call
  /// before Service::stop() in an orderly shutdown; the reverse order is
  /// also safe (later batches are rejected kShutdown at the gate).
  void stop() {
    if (stop_.exchange(true, std::memory_order_acq_rel)) return;
    for (auto& l : loops_) write_wake(l->wake_fd);
    for (auto& l : loops_)
      if (l->thread.joinable()) l->thread.join();
    for (auto& l : loops_) {
      for (const auto& [fd, conn] : l->conns) ::close(fd);
      l->conns.clear();
      for (const int fd : l->handoff) ::close(fd);
      l->handoff.clear();
      ::close(l->wake_fd);
      ::close(l->epoll_fd);
    }
    ::close(listen_fd_);
  }

  Counters counters() const noexcept {
    Counters out;
    for (const auto& l : loops_) {
      const LoopCounters& c = l->c;
      out.accepted += c.accepted.load(std::memory_order_relaxed);
      out.closed += c.closed.load(std::memory_order_relaxed);
      out.batches += c.batches.load(std::memory_order_relaxed);
      out.fused_ops += c.fused_ops.load(std::memory_order_relaxed);
      out.batch_txs += c.batch_txs.load(std::memory_order_relaxed);
      out.bytes_in += c.bytes_in.load(std::memory_order_relaxed);
      out.bytes_out += c.bytes_out.load(std::memory_order_relaxed);
      out.rejected_frames += c.rejected_frames.load(std::memory_order_relaxed);
      out.timeouts += c.timeouts.load(std::memory_order_relaxed);
      out.max_inflight = std::max(
          out.max_inflight, c.max_inflight.load(std::memory_order_relaxed));
      out.loop_parks += c.loop_parks.load(std::memory_order_relaxed);
      out.loop_polls += c.loop_polls.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  /// One pipeline batch: the kv ops (results written in place by
  /// Service::run_here), the wire identity of each op for the response
  /// encoder, and the Completion run_here signals. Each connection owns
  /// one, refilled for every batch.
  struct NetBatch {
    std::vector<kv::BatchOp> ops;
    std::vector<std::uint32_t> seqs;
    std::vector<WireOp> wire_ops;
    kv::Completion done;
  };

  struct Conn {
    int fd = -1;
    FrameDecoder dec;
    std::deque<NetOp> staged;  // decoded, not yet run
    NetBatch batch;
    std::string outbuf;
    std::size_t outoff = 0;
    std::uint64_t last_in_ns = 0;
    std::uint32_t armed = EPOLLIN;  // interest set epoll currently holds
    bool reading = true;   // want EPOLLIN
    bool want_out = false; // want EPOLLOUT
    bool closing = false;  // serve what's queued, then close
    bool reject = false;   // owe a bad_frame response, in order, then close
    bool queued = false;   // in its loop's ready list

    explicit Conn(int f, std::uint32_t max_frame, std::uint64_t now)
        : fd(f), dec(max_frame), last_in_ns(now) {}
  };

  /// One loop's counters: written by its thread only, summed by
  /// counters().
  struct LoopCounters {
    std::atomic<std::uint64_t> accepted{0}, closed{0}, batches{0},
        fused_ops{0}, batch_txs{0}, bytes_in{0}, bytes_out{0},
        rejected_frames{0}, timeouts{0}, max_inflight{0}, loop_parks{0},
        loop_polls{0};
  };

  /// One event loop: its thread, epoll set and wake eventfd, the
  /// connections it owns, and the connections loop 0 has accepted for it
  /// but it has not adopted yet.
  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;  // loop thread only
    std::vector<int> ready;    // conns with staged ops, served next pass
    std::vector<int> serving;  // the ready list of the pass being served
    std::mutex handoff_mu;
    std::vector<int> handoff;  // guarded by handoff_mu
    LoopCounters c;
    std::thread thread;
  };

  static void bump(std::atomic<std::uint64_t>& counter, int metric = -1,
                   std::uint64_t n = 1) {
    counter.fetch_add(n, std::memory_order_relaxed);
    util::MetricsRegistry::add(metric, n);
  }

  static void write_wake(int fd) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t r = ::write(fd, &one, sizeof(one));
  }

  static void arm(Loop& l, int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(l.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  }

  /// Sync epoll with reading/want_out; a syscall only when they changed.
  static void rearm(Loop& l, Conn& c) {
    const std::uint32_t want =
        (c.reading ? EPOLLIN : 0u) | (c.want_out ? EPOLLOUT : 0u);
    if (want == c.armed) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c.fd;
    epoll_ctl(l.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
    c.armed = want;
  }

  void run(Loop& l) {
    std::vector<epoll_event> events(64);
    bool polling = false;
    std::uint64_t last_event_ns = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      int timeout_ms = 0;
      if (polling) {
        bump(l.c.loop_polls, metric_polls_);
      } else {
        timeout_ms = next_timeout_ms(l);
        bump(l.c.loop_parks, metric_parks_);
      }
      const int n =
          epoll_wait(l.epoll_fd, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == listen_fd_) {
          accept_ready(l);
        } else if (fd == l.wake_fd) {
          adopt(l);
        } else {
          auto it = l.conns.find(fd);
          if (it == l.conns.end()) continue;
          Conn& c = *it->second;
          if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
            close_conn(l, c);
            continue;
          }
          if ((events[i].events & EPOLLIN) != 0) read_ready(l, c);
          if ((events[i].events & EPOLLOUT) != 0) flush(l, c);
          if (done_closing(c)) close_conn(l, c);
        }
      }
      const bool served = serve_ready(l);
      reap_idle(l);
      // Poll until one window passes with no event and no batch, then
      // park. A connection with a backlog runs a batch every pass, so
      // its loop keeps polling until the backlog is gone.
      if (n > 0 || served) {
        polling = true;
        last_event_ns = monotonic_ns();
      } else if (polling) {
        if (monotonic_ns() - last_event_ns >= kPollWindowNs)
          polling = false;
        else
          util::cpu_relax();
      }
    }
  }

  int next_timeout_ms(const Loop& l) const {
    if (opt_.idle_timeout_ms == 0 || l.conns.empty()) return 100;
    const std::uint64_t now = monotonic_ns();
    const std::uint64_t budget_ns = opt_.idle_timeout_ms * 1000000ULL;
    std::uint64_t min_left = budget_ns;
    for (const auto& [fd, conn] : l.conns) {
      const std::uint64_t idle = now - conn->last_in_ns;
      const std::uint64_t left = idle >= budget_ns ? 0 : budget_ns - idle;
      if (left < min_left) min_left = left;
    }
    return static_cast<int>(min_left / 1000000ULL) + 1;
  }

  /// Loop 0 only: accept every pending connection and hand the n-th to
  /// loop n % K — its own share directly, the others through their
  /// hand-off vector and a write to their eventfd.
  void accept_ready(Loop& l0) {
    for (;;) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN (or transient error): done for now
      const std::uint64_t n =
          l0.c.accepted.fetch_add(1, std::memory_order_relaxed);
      Loop& to = *loops_[n % loops_.size()];
      if (&to == &l0) {
        add_conn(l0, fd);
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(to.handoff_mu);
        to.handoff.push_back(fd);
      }
      write_wake(to.wake_fd);
    }
  }

  /// Reset the (non-semaphore) eventfd with one read, then adopt every
  /// connection handed over since. Draining before taking the vector
  /// means a hand-off that lands after the take has re-armed the wake.
  void adopt(Loop& l) {
    std::uint64_t buf = 0;
    [[maybe_unused]] const ssize_t r = ::read(l.wake_fd, &buf, sizeof(buf));
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(l.handoff_mu);
      fds.swap(l.handoff);
    }
    for (const int fd : fds) add_conn(l, fd);
  }

  void add_conn(Loop& l, int fd) {
    l.conns.emplace(fd, std::make_unique<Conn>(fd, opt_.max_frame_bytes,
                                               monotonic_ns()));
    arm(l, fd);
  }

  /// Read until a short read (level-triggered epoll reports whatever
  /// arrives next, EOF included, so a read that would only return EAGAIN
  /// is skipped), then stage every complete frame.
  void read_ready(Loop& l, Conn& c) {
    char buf[65536];
    for (;;) {
      const ssize_t r = ::read(c.fd, buf, sizeof(buf));
      if (r > 0) {
        bump(l.c.bytes_in, metric_bytes_in_, static_cast<std::uint64_t>(r));
        c.dec.feed(buf, static_cast<std::size_t>(r));
        c.last_in_ns = monotonic_ns();
        if (static_cast<std::size_t>(r) < sizeof(buf)) break;
        continue;
      }
      if (r == 0) {
        c.closing = true;
        break;
      }
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    for (;;) {
      NetOp op;
      const DecodeResult d = c.dec.next(op);
      if (d == DecodeResult::kFrame) {
        c.staged.push_back(std::move(op));
        continue;
      }
      if (d == DecodeResult::kNeedMore) break;
      // Oversized or malformed: owe the client one bad_frame response —
      // emitted only after every previously accepted op has answered, so
      // responses never jump the submission order — then close.
      bump(l.c.rejected_frames);
      c.reject = true;
      c.closing = true;
      break;
    }
    settle(l, c);
  }

  /// Run one batch for every connection in the ready list: at most one
  /// per connection per pass, so a deep backlog cannot starve its
  /// loop-mates. True if any batch ran.
  bool serve_ready(Loop& l) {
    if (l.ready.empty()) return false;
    l.serving.swap(l.ready);
    for (const int fd : l.serving) {
      auto it = l.conns.find(fd);
      // Closed since it was queued; its number may already name a newer
      // connection, which has nothing staged.
      if (it == l.conns.end() || it->second->staged.empty()) continue;
      Conn& c = *it->second;
      c.queued = false;
      run_batch(l, c);
      settle(l, c);
      if (done_closing(c)) close_conn(l, c);
    }
    l.serving.clear();
    return true;
  }

  /// After a read or a batch: queue the connection for the next pass
  /// while ops are staged, emit an owed rejection, read only while the
  /// staged backlog is under the window (a client that outruns the store
  /// parks in its socket buffer), and flush. Never closes (callers check
  /// done_closing).
  void settle(Loop& l, Conn& c) {
    if (!c.staged.empty() && !c.queued) {
      c.queued = true;
      l.ready.push_back(c.fd);
    }
    finish_reject(c);
    c.reading = !c.closing && c.staged.size() < opt_.max_inflight_ops;
    flush(l, c);  // rearms
  }

  /// Emit the owed bad_frame rejection once everything accepted before
  /// the bad bytes has been served: it is the connection's last response.
  void finish_reject(Conn& c) {
    if (!c.reject || !c.staged.empty()) return;
    NetResponse bad;
    bad.op = WireOp::kGet;
    bad.status = WireStatus::kBadFrame;
    bad.seq = 0;
    encode_response(c.outbuf, bad);
    c.reject = false;
  }

  /// True once a closing connection has nothing left to serve or flush.
  bool done_closing(const Conn& c) const {
    return c.closing && !c.reject && c.staged.empty() &&
           c.outoff == c.outbuf.size();
  }

  /// Move up to the window's worth of staged ops into the connection's
  /// batch — ONE kBatch request, the boundary Store::run_batch fuses per
  /// same-shard run — run it to completion on this loop, and encode its
  /// responses in op order. Ordering inside a batch plus one batch at a
  /// time per connection gives a pipeline program order (a PUT followed
  /// by a DEL of the same key has exactly one right answer) and
  /// responses in submission order.
  void run_batch(Loop& l, Conn& c) {
    const std::size_t take = std::min(c.staged.size(), opt_.max_inflight_ops);
    NetBatch& b = c.batch;
    b.ops.clear();
    b.seqs.clear();
    b.wire_ops.clear();
    b.done.reset();
    for (std::size_t i = 0; i < take; ++i) {
      NetOp& in = c.staged.front();
      kv::BatchOp op;
      switch (in.op) {
        case WireOp::kGet:
          op.op = kv::OpCode::kGet;
          break;
        case WireOp::kPut:
          op.op = kv::OpCode::kPut;
          break;
        case WireOp::kDel:
          op.op = kv::OpCode::kDel;
          break;
        case WireOp::kScan:
          op.op = kv::OpCode::kScan;
          break;
        case WireOp::kStats:
          op.op = kv::OpCode::kStats;
          break;
      }
      op.key = std::move(in.key);
      op.value = std::move(in.value);
      op.scan_limit = in.scan_limit;
      b.seqs.push_back(in.seq);
      b.wire_ops.push_back(in.op);
      b.ops.push_back(std::move(op));
      c.staged.pop_front();
    }
    kv::Request req;
    req.op = kv::OpCode::kBatch;
    req.done = &b.done;
    req.batch = b.ops.data();
    req.batch_len = static_cast<std::uint32_t>(take);
    if (take > l.c.max_inflight.load(std::memory_order_relaxed))
      l.c.max_inflight.store(take, std::memory_order_relaxed);
    bump(l.c.batches, metric_batches_);
    // A rejected request (service stopping) still signals kShutdown on
    // the Completion, so the loop below answers it uniformly.
    service_.run_here(std::move(req));
    const kv::ResultCode rc = b.done.rc;
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      NetResponse r;
      r.op = b.wire_ops[i];
      r.seq = b.seqs[i];
      if (rc == kv::ResultCode::kStopped) {
        r.status = WireStatus::kStopped;
      } else if (rc == kv::ResultCode::kShutdown) {
        r.status = WireStatus::kShutdown;
      } else {
        kv::BatchOp& op = b.ops[i];
        switch (r.op) {
          case WireOp::kGet:
            r.status = op.hit ? WireStatus::kOk : WireStatus::kNotFound;
            if (op.hit) r.value = std::move(op.out);
            break;
          case WireOp::kPut:
            r.status = WireStatus::kOk;
            r.created = op.hit;
            break;
          case WireOp::kDel:
            r.status = op.hit ? WireStatus::kOk : WireStatus::kNotFound;
            break;
          case WireOp::kScan:
            r.status = WireStatus::kOk;
            r.scan_count = op.scan_count;
            break;
          case WireOp::kStats:
            r.status = WireStatus::kOk;
            r.value = std::move(op.out);
            break;
        }
      }
      encode_response(c.outbuf, r);
    }
    bump(l.c.fused_ops, metric_fused_, b.done.fused_ops);
    bump(l.c.batch_txs, -1, b.done.batch_txs);
  }

  void flush(Loop& l, Conn& c) {
    while (c.outoff < c.outbuf.size()) {
      const ssize_t w =
          ::write(c.fd, c.outbuf.data() + c.outoff, c.outbuf.size() - c.outoff);
      if (w > 0) {
        c.outoff += static_cast<std::size_t>(w);
        bump(l.c.bytes_out, metric_bytes_out_, static_cast<std::uint64_t>(w));
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      break;  // EAGAIN (or a dead peer): EPOLLOUT will retry
    }
    if (c.outoff == c.outbuf.size()) {
      c.outbuf.clear();
      c.outoff = 0;
    }
    c.want_out = !c.outbuf.empty();
    rearm(l, c);
  }

  void reap_idle(Loop& l) {
    if (opt_.idle_timeout_ms == 0) return;
    const std::uint64_t now = monotonic_ns();
    const std::uint64_t budget_ns = opt_.idle_timeout_ms * 1000000ULL;
    std::vector<int> idle;
    for (const auto& [fd, conn] : l.conns)
      if (now - conn->last_in_ns >= budget_ns) idle.push_back(fd);
    for (const int fd : idle) {
      bump(l.c.timeouts);
      close_conn(l, *l.conns.at(fd));
    }
  }

  /// Closing the descriptor also drops it from the epoll set.
  void close_conn(Loop& l, Conn& c) {
    const int fd = c.fd;
    ::close(fd);
    l.conns.erase(fd);
    bump(l.c.closed);
  }

  kv::Service<TM, RR>& service_;
  Options opt_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool ok_ = false;
  std::atomic<bool> stop_{false};
  const int metric_bytes_in_ = util::MetricsRegistry::counter("net.bytes_in");
  const int metric_bytes_out_ =
      util::MetricsRegistry::counter("net.bytes_out");
  const int metric_batches_ = util::MetricsRegistry::counter("net.batches");
  const int metric_fused_ = util::MetricsRegistry::counter("net.fused_ops");
  const int metric_parks_ = util::MetricsRegistry::counter("net.loop_parks");
  const int metric_polls_ = util::MetricsRegistry::counter("net.loop_polls");
  std::vector<std::unique_ptr<Loop>> loops_;  // threads use every member above
};

}  // namespace hohtm::net
