#pragma once

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kv/service.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "util/metrics.hpp"

namespace hohtm::net {

/// TCP front door over kv::Service (docs/SERVING.md): one event-loop
/// thread runs a level-triggered epoll over the listener, an eventfd,
/// and every connection. Reads decode incrementally (torn frames and
/// coalesced reads are the normal case), decoded ops from one pipeline
/// read become a single kv::OpCode::kBatch request — the batch boundary
/// the store fuses into one window transaction per same-shard run — with
/// at most one batch in flight per connection, so a pipeline executes in
/// program order and responses are written back strictly in submission
/// order. A batch of several ops, a scan, or a STATS goes through the
/// ring to a worker; a batch of exactly one GET, PUT or DEL cannot fuse,
/// so the loop runs it itself (Service::run_here) and skips the ring hop
/// and the eventfd round trip. Backpressure is a bounded in-flight-op
/// window per connection: when it fills, the connection's EPOLLIN is
/// dropped until completions drain, so a client that outruns the store
/// parks in its socket buffer instead of ballooning server memory.
/// Workers never see a socket, and an inline op runs to completion
/// before the loop touches another socket or enters epoll_wait, so a
/// stalled client cannot hold a reservation or a quiescence fence — the
/// precise-reclamation robustness argument the stalled-client test pins
/// down. The price of inlining: an inline PUT's commit fence waits for
/// in-flight worker transactions, so a worker stalled mid-window pauses
/// the loop too.
template <class TM, class RR>
class Server {
 public:
  struct Options {
    std::uint16_t port = 0;               // 0 = ephemeral loopback port
    std::size_t max_inflight_ops = 64;    // per-connection backpressure window
    std::uint32_t max_frame_bytes = kMaxFrameBytes;
    std::uint64_t idle_timeout_ms = 0;    // 0 = never time out
  };

  /// Monotonic counters, written by the loop thread, readable any time.
  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t batches = 0;     // pipeline batches, ring or inline
    std::uint64_t inline_batches = 0;  // of those, run on the loop thread
    std::uint64_t fused_ops = 0;   // ops committed inside fused groups
    std::uint64_t batch_txs = 0;   // fused group transactions
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t rejected_frames = 0;  // oversized / malformed
    std::uint64_t timeouts = 0;         // idle connections reaped
    std::uint64_t max_inflight = 0;     // high-water in-flight ops, any conn
  };

  Server(kv::Service<TM, RR>& service, Options opt)
      : service_(service), opt_(opt) {
    listen_fd_ = listen_tcp(opt_.port, &port_);
    wake_fd_ = make_eventfd();
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    ok_ = listen_fd_ >= 0 && wake_fd_ >= 0 && epoll_fd_ >= 0;
    if (ok_) {
      arm(listen_fd_, EPOLLIN);
      arm(wake_fd_, EPOLLIN);
      loop_ = std::thread([this] { run(); });
    }
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ~Server() { stop(); }

  bool ok() const noexcept { return ok_; }
  std::uint16_t port() const noexcept { return port_; }

  /// Stop accepting, drain every connection's in-flight batches, close
  /// all sockets, and join the loop thread. Call before Service::stop()
  /// in an orderly shutdown; the reverse order is also safe (submitted
  /// batches answer kStopped, later ones are rejected kShutdown — both
  /// signal, so the drain never hangs).
  void stop() {
    if (!ok_ || stop_.exchange(true, std::memory_order_acq_rel)) return;
    kick();
    loop_.join();
    for (auto& [fd, conn] : conns_) teardown(*conn);
    conns_.clear();
    ::close(listen_fd_);
    ::close(wake_fd_);
    ::close(epoll_fd_);
  }

  Counters counters() const noexcept {
    Counters out;
    out.accepted = c_accepted_.load(std::memory_order_relaxed);
    out.closed = c_closed_.load(std::memory_order_relaxed);
    out.batches = c_batches_.load(std::memory_order_relaxed);
    out.inline_batches = c_inline_batches_.load(std::memory_order_relaxed);
    out.fused_ops = c_fused_ops_.load(std::memory_order_relaxed);
    out.batch_txs = c_batch_txs_.load(std::memory_order_relaxed);
    out.bytes_in = c_bytes_in_.load(std::memory_order_relaxed);
    out.bytes_out = c_bytes_out_.load(std::memory_order_relaxed);
    out.rejected_frames = c_rejected_.load(std::memory_order_relaxed);
    out.timeouts = c_timeouts_.load(std::memory_order_relaxed);
    out.max_inflight = c_max_inflight_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  /// One pipeline batch: the kv ops (results written in place by the
  /// executor), the wire identity of each op for the response encoder,
  /// and the Completion the executor signals. Each connection owns one,
  /// refilled for every batch and never touched while a worker holds it.
  struct NetBatch {
    std::vector<kv::BatchOp> ops;
    std::vector<std::uint32_t> seqs;
    std::vector<WireOp> wire_ops;
    kv::Completion done;
  };

  struct Conn {
    int fd = -1;
    FrameDecoder dec;
    std::deque<NetOp> staged;  // decoded, not yet submitted
    NetBatch batch;            // the one batch in flight, if inflight > 0
    std::string outbuf;
    std::size_t outoff = 0;
    std::size_t inflight = 0;  // ops in `batch`, completion not harvested
    std::uint64_t last_in_ns = 0;
    std::uint32_t armed = EPOLLIN;  // interest set epoll currently holds
    bool reading = true;   // want EPOLLIN
    bool want_out = false; // want EPOLLOUT
    bool closing = false;  // serve what's queued, then close
    bool reject = false;   // owe a bad_frame response, in order, then close

    explicit Conn(int f, std::uint32_t max_frame, std::uint64_t now)
        : fd(f), dec(max_frame), last_in_ns(now) {}
  };

  /// Completion::on_signal hook: one eventfd write. Touches only the
  /// argument (the Completion may be concurrently harvested and freed).
  static void wake_hook(void* arg) {
    const int fd = static_cast<int>(reinterpret_cast<std::intptr_t>(arg));
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t r = ::write(fd, &one, sizeof(one));
  }

  void kick() { wake_hook(reinterpret_cast<void*>(
      static_cast<std::intptr_t>(wake_fd_))); }

  void arm(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }

  /// Sync epoll with reading/want_out; a syscall only when they changed.
  void rearm(Conn& c) {
    const std::uint32_t want =
        (c.reading ? EPOLLIN : 0u) | (c.want_out ? EPOLLOUT : 0u);
    if (want == c.armed) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c.fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    c.armed = want;
  }

  void run() {
    const int kMetricBytesIn = util::MetricsRegistry::counter("net.bytes_in");
    const int kMetricBytesOut =
        util::MetricsRegistry::counter("net.bytes_out");
    const int kMetricBatches = util::MetricsRegistry::counter("net.batches");
    const int kMetricInline =
        util::MetricsRegistry::counter("net.inline_batches");
    const int kMetricFused = util::MetricsRegistry::counter("net.fused_ops");
    metric_bytes_in_ = kMetricBytesIn;
    metric_bytes_out_ = kMetricBytesOut;
    metric_batches_ = kMetricBatches;
    metric_inline_ = kMetricInline;
    metric_fused_ = kMetricFused;
    std::vector<epoll_event> events(64);
    while (!stop_.load(std::memory_order_acquire)) {
      const int timeout_ms = next_timeout_ms();
      const int n =
          epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == listen_fd_) {
          accept_ready();
        } else if (fd == wake_fd_) {
          drain_wake();
          harvest_all();
        } else {
          auto it = conns_.find(fd);
          if (it == conns_.end()) continue;
          Conn& c = *it->second;
          if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
            close_conn(c);
            continue;
          }
          if ((events[i].events & EPOLLIN) != 0) read_ready(c);
          if (conns_.count(fd) == 0) continue;  // read path closed it
          if ((events[i].events & EPOLLOUT) != 0) flush(c);
          if (done_closing(c)) close_conn(c);
        }
      }
      // Completions may have signalled while we were handling sockets.
      harvest_all();
      reap_idle();
    }
  }

  int next_timeout_ms() const {
    if (opt_.idle_timeout_ms == 0 || conns_.empty()) return 100;
    const std::uint64_t now = monotonic_ns();
    const std::uint64_t budget_ns = opt_.idle_timeout_ms * 1000000ULL;
    std::uint64_t min_left = budget_ns;
    for (const auto& [fd, conn] : conns_) {
      const std::uint64_t idle = now - conn->last_in_ns;
      const std::uint64_t left = idle >= budget_ns ? 0 : budget_ns - idle;
      if (left < min_left) min_left = left;
    }
    return static_cast<int>(min_left / 1000000ULL) + 1;
  }

  void accept_ready() {
    for (;;) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN (or transient error): done for now
      set_nonblocking(fd);
      c_accepted_.fetch_add(1, std::memory_order_relaxed);
      conns_.emplace(fd, std::make_unique<Conn>(fd, opt_.max_frame_bytes,
                                                monotonic_ns()));
      arm(fd, EPOLLIN);
    }
  }

  /// One read resets the (non-semaphore) eventfd counter to zero.
  void drain_wake() {
    std::uint64_t buf = 0;
    [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &buf, sizeof(buf));
  }

  void read_ready(Conn& c) {
    char buf[65536];
    bool saw_eof = false;
    for (;;) {
      const ssize_t r = ::read(c.fd, buf, sizeof(buf));
      if (r > 0) {
        c_bytes_in_.fetch_add(static_cast<std::uint64_t>(r),
                              std::memory_order_relaxed);
        util::MetricsRegistry::add(metric_bytes_in_,
                                   static_cast<std::uint64_t>(r));
        c.dec.feed(buf, static_cast<std::size_t>(r));
        c.last_in_ns = monotonic_ns();
        continue;
      }
      if (r == 0) {
        saw_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    // Decode every complete frame the read produced.
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
      c_rejected_.fetch_add(1, std::memory_order_relaxed);
      c.reject = true;
      c.closing = true;
      c.reading = false;
      break;
    }
    if (saw_eof) {
      c.closing = true;
      c.reading = false;
    }
    pump(c);
    finish_reject(c);
    rearm(c);
    flush(c);
    if (done_closing(c)) close_conn(c);
  }

  /// Emit the owed bad_frame rejection once everything accepted before
  /// the bad bytes has been served: it is the connection's last response.
  void finish_reject(Conn& c) {
    if (!c.reject || c.inflight != 0 || !c.staged.empty()) return;
    NetResponse bad;
    bad.op = WireOp::kGet;
    bad.status = WireStatus::kBadFrame;
    bad.seq = 0;
    encode_response(c.outbuf, bad);
    c.reject = false;
  }

  /// True once a closing connection has nothing left to serve or flush.
  bool done_closing(const Conn& c) const {
    return c.closing && !c.reject && c.inflight == 0 && c.staged.empty() &&
           c.outoff == c.outbuf.size();
  }

  /// Turn staged ops into batches, one at a time, until one is left
  /// running on a worker or nothing is staged.
  void pump(Conn& c) {
    while (!c.staged.empty() && c.inflight == 0 && !start_batch(c))
      collect(c);  // ran inline: answer it and go on
    // Backpressure: a full in-flight window, or a staged backlog already
    // deep enough to refill it, stops reads until completions drain — the
    // client parks in its socket buffer instead of ballooning the server.
    const bool throttled = c.inflight >= opt_.max_inflight_ops ||
                           c.staged.size() >= opt_.max_inflight_ops;
    if (throttled && c.reading) {
      c.reading = false;
      rearm(c);
    }
  }

  /// Move up to the window's worth of staged ops into the connection's
  /// batch — ONE kBatch request, the boundary Store::run_batch fuses per
  /// same-shard run — and start it. At most one batch is in flight per
  /// connection: the ring may serve different connections' batches on
  /// different workers, but a single connection's pipeline must execute
  /// in program order (a PUT followed by a DEL of the same key has
  /// exactly one right answer), and ordering inside a batch plus
  /// one-batch-at-a-time gives exactly that. A lone GET, PUT or DEL has
  /// nothing to fuse with, so it runs here and has signalled on return
  /// (true only when the batch went to the ring).
  bool start_batch(Conn& c) {
    const std::size_t take = c.staged.size() < opt_.max_inflight_ops
                                 ? c.staged.size()
                                 : opt_.max_inflight_ops;
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
    c.inflight = take;
    if (c.inflight > c_max_inflight_.load(std::memory_order_relaxed))
      c_max_inflight_.store(c.inflight, std::memory_order_relaxed);
    c_batches_.fetch_add(1, std::memory_order_relaxed);
    util::MetricsRegistry::add(metric_batches_);
    // A rejected request (service stopping) still signals kShutdown on
    // the Completion, so collect() answers it uniformly either way.
    if (take == 1 && b.wire_ops[0] != WireOp::kScan &&
        b.wire_ops[0] != WireOp::kStats) {
      c_inline_batches_.fetch_add(1, std::memory_order_relaxed);
      util::MetricsRegistry::add(metric_inline_);
      service_.run_here(std::move(req));
      return false;
    }
    b.done.on_signal = &Server::wake_hook;
    b.done.on_signal_arg =
        reinterpret_cast<void*>(static_cast<std::intptr_t>(wake_fd_));
    service_.submit(std::move(req));
    return true;
  }

  void harvest_all() {
    std::vector<int> done_fds;
    for (auto& [fd, conn] : conns_) {
      harvest(*conn);
      if (done_closing(*conn)) done_fds.push_back(fd);
    }
    for (const int fd : done_fds) {
      auto it = conns_.find(fd);
      if (it != conns_.end()) close_conn(*it->second);
    }
  }

  /// Answer the connection's batch if it has signalled, then start the
  /// next one, resume reading, and flush. Never closes the connection
  /// (callers check done_closing afterward, outside any iteration over
  /// the connection map).
  void harvest(Conn& c) {
    if (c.inflight == 0 ||
        c.batch.done.state.load(std::memory_order_acquire) != 1)
      return;
    collect(c);
    pump(c);
    finish_reject(c);
    // Window drained below the cap and the backlog refilled: resume
    // reading once both are back under the throttle thresholds.
    if (!c.closing && !c.reading && c.inflight < opt_.max_inflight_ops &&
        c.staged.size() < opt_.max_inflight_ops) {
      c.reading = true;
      rearm(c);
    }
    flush(c);
  }

  /// Encode the signalled batch's responses, in op order — with one batch
  /// in flight per connection, responses leave strictly in request order
  /// even when the ring serves batches on different workers — and free
  /// the batch for the next one.
  void collect(Conn& c) {
    NetBatch& b = c.batch;
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
    c.inflight = 0;
    c_fused_ops_.fetch_add(b.done.fused_ops, std::memory_order_relaxed);
    c_batch_txs_.fetch_add(b.done.batch_txs, std::memory_order_relaxed);
    util::MetricsRegistry::add(metric_fused_, b.done.fused_ops);
  }

  void flush(Conn& c) {
    while (c.outoff < c.outbuf.size()) {
      const ssize_t w =
          ::write(c.fd, c.outbuf.data() + c.outoff, c.outbuf.size() - c.outoff);
      if (w > 0) {
        c.outoff += static_cast<std::size_t>(w);
        c_bytes_out_.fetch_add(static_cast<std::uint64_t>(w),
                               std::memory_order_relaxed);
        util::MetricsRegistry::add(metric_bytes_out_,
                                   static_cast<std::uint64_t>(w));
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      break;  // EAGAIN (or a dead peer): EPOLLOUT will retry
    }
    if (c.outoff == c.outbuf.size()) {
      c.outbuf.clear();
      c.outoff = 0;
      if (c.want_out) {
        c.want_out = false;
        rearm(c);
      }
    } else if (!c.want_out) {
      c.want_out = true;
      rearm(c);
    }
  }

  void reap_idle() {
    if (opt_.idle_timeout_ms == 0) return;
    const std::uint64_t now = monotonic_ns();
    const std::uint64_t budget_ns = opt_.idle_timeout_ms * 1000000ULL;
    std::vector<int> idle;
    for (const auto& [fd, conn] : conns_)
      if (now - conn->last_in_ns >= budget_ns) idle.push_back(fd);
    for (const int fd : idle) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      c_timeouts_.fetch_add(1, std::memory_order_relaxed);
      close_conn(*it->second);
    }
  }

  void close_conn(Conn& c) {
    const int fd = c.fd;
    teardown(c);
    conns_.erase(fd);
    c_closed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Wait out the in-flight batch (workers are live, so the wait is one
  /// op-service long), then close the socket. The wait is what makes
  /// freeing the NetBatch — which the worker writes into — safe.
  void teardown(Conn& c) {
    if (c.inflight != 0) c.batch.done.wait();
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
  }

  kv::Service<TM, RR>& service_;
  Options opt_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t port_ = 0;
  bool ok_ = false;
  std::thread loop_;
  std::atomic<bool> stop_{false};
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;  // loop thread only
  int metric_bytes_in_ = -1;
  int metric_bytes_out_ = -1;
  int metric_batches_ = -1;
  int metric_inline_ = -1;
  int metric_fused_ = -1;
  std::atomic<std::uint64_t> c_accepted_{0};
  std::atomic<std::uint64_t> c_closed_{0};
  std::atomic<std::uint64_t> c_batches_{0};
  std::atomic<std::uint64_t> c_inline_batches_{0};
  std::atomic<std::uint64_t> c_fused_ops_{0};
  std::atomic<std::uint64_t> c_batch_txs_{0};
  std::atomic<std::uint64_t> c_bytes_in_{0};
  std::atomic<std::uint64_t> c_bytes_out_{0};
  std::atomic<std::uint64_t> c_rejected_{0};
  std::atomic<std::uint64_t> c_timeouts_{0};
  std::atomic<std::uint64_t> c_max_inflight_{0};
};

}  // namespace hohtm::net
