#pragma once

#include <cstddef>
#include <cstdint>

namespace hohtm::net {

/// Thin POSIX socket helpers for the serving tier; loopback-only by
/// design (the bench and tests drive real TCP through 127.0.0.1). All
/// functions return -1 on failure and never throw.

/// Nonblocking listener bound to 127.0.0.1:`port` (0 = ephemeral); the
/// actually-bound port lands in `*bound_port`.
int listen_tcp(std::uint16_t port, std::uint16_t* bound_port);

/// Blocking client connection to 127.0.0.1:`port`.
int connect_tcp(std::uint16_t port);

int set_nonblocking(int fd);

/// eventfd for cross-thread event-loop wakeups (loop 0's connection
/// hand-off and Server::stop() write here; the woken loop drains it).
int make_eventfd();

/// Write all `n` bytes to a blocking fd, retrying on EINTR/short writes.
bool write_all(int fd, const char* data, std::size_t n);

/// CLOCK_MONOTONIC in nanoseconds (idle-timeout bookkeeping).
std::uint64_t monotonic_ns();

}  // namespace hohtm::net
