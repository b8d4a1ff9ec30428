// socket.hpp — thin POSIX TCP helpers for the network front-end.
//
// Everything the server and client need from the socket layer, with the
// paper cuts handled once:
//
//   * SIGPIPE — a peer that closes mid-write must surface as EPIPE from
//     send(), not kill the process: sends use MSG_NOSIGNAL and
//     ignore_sigpipe() covers any path that bypasses send (e.g. a
//     sanitizer interceptor falling back to write).
//   * EINTR — every syscall wrapper retries; a signal landing mid-accept
//     or mid-read is invisible to callers.
//   * Partial I/O — read_some/write_some return what the kernel took and
//     report would-block distinctly, so the event loop can resume a
//     partial write when the socket drains (see Server::flush).
//
// IPv4 only (the server is a loopback/LAN service; the listen address is
// explicit). All helpers throw std::runtime_error with errno context on
// hard failures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <sys/types.h>
#include <utility>

namespace flit::net {

/// The peer closed the connection (EOF, reset, or a dead peer mid-write).
/// Distinct from other I/O failures so a client can tell a server that
/// hung up — e.g. reaped an idle connection — from a protocol error.
struct ConnectionClosed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Move-only owning file descriptor.
class SocketFd {
 public:
  SocketFd() = default;
  explicit SocketFd(int fd) noexcept : fd_(fd) {}
  ~SocketFd() { reset(); }
  SocketFd(const SocketFd&) = delete;
  SocketFd& operator=(const SocketFd&) = delete;
  SocketFd(SocketFd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  SocketFd& operator=(SocketFd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Idempotent, thread-safe: SIG_IGN SIGPIPE for the process. Called by
/// the server and client constructors; a broken pipe then surfaces as
/// EPIPE from the write, which the owner handles as a dead connection.
void ignore_sigpipe();

/// Bind + listen on host:port (port 0 = kernel-assigned ephemeral port;
/// read it back with local_port). SO_REUSEADDR is set.
SocketFd listen_tcp(const std::string& host, std::uint16_t port,
                    int backlog = 128);

/// The locally bound port of a socket (resolves port-0 binds).
std::uint16_t local_port(int fd);

/// Blocking connect to host:port with TCP_NODELAY.
SocketFd connect_tcp(const std::string& host, std::uint16_t port);

/// EINTR-retrying accept4(SOCK_NONBLOCK | SOCK_CLOEXEC). Returns an
/// invalid SocketFd when the listener has nothing pending (EAGAIN) or a
/// transient per-connection failure occurred. When `transient_err` is
/// non-null it reports why: 0 for a drained listener, else the errno
/// (ECONNABORTED, EMFILE, ENFILE, ENOBUFS, ENOMEM, EPROTO) — the server
/// backs off accepting on the fd-pressure subset instead of spinning on
/// a level-triggered listener it cannot drain.
SocketFd accept_nonblocking(int listen_fd, int* transient_err = nullptr);

void set_nonblocking(int fd, bool on);
void set_nodelay(int fd);

/// EINTR-retrying read(). >0 bytes, 0 on EOF, -1 with would_block=true
/// when the socket is drained; throws std::runtime_error on hard errors.
ssize_t read_some(int fd, void* buf, std::size_t n, bool& would_block);

/// EINTR-retrying send(MSG_NOSIGNAL). Returns bytes accepted, or -1 with
/// would_block=true on a full socket buffer. A dead peer (EPIPE /
/// ECONNRESET) returns -1 with would_block=false — a closed connection,
/// not an exception (it is routine under pipelining).
ssize_t write_some(int fd, const void* buf, std::size_t n,
                   bool& would_block);

/// Blocking write of the whole buffer (poll()s through would-block).
/// Throws ConnectionClosed if the peer dies first.
void write_all(int fd, const void* buf, std::size_t n);

}  // namespace flit::net
