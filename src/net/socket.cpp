#include "net/socket.hpp"

#include "core/failpoint.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

namespace flit::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("net: " + what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("net: bad IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void SocketFd::reset(int fd) noexcept {
  if (fd_ >= 0) {
    // close() is not retried on EINTR: on Linux the fd is released
    // regardless, and retrying can close a reused descriptor.
    ::close(fd_);
  }
  fd_ = fd;
}

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

SocketFd listen_tcp(const std::string& host, std::uint16_t port,
                    int backlog) {
  SocketFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  const sockaddr_in addr = make_addr(host, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen");
  // The accept loop drains until EWOULDBLOCK; accept4(SOCK_NONBLOCK)
  // only affects the accepted fd, so the listener itself must be
  // non-blocking or the drain loop wedges on its second iteration.
  set_nonblocking(fd.get(), true);
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

SocketFd connect_tcp(const std::string& host, std::uint16_t port) {
  ignore_sigpipe();
  SocketFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const sockaddr_in addr = make_addr(host, port);
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  set_nodelay(fd.get());
  return fd;
}

SocketFd accept_nonblocking(int listen_fd, int* transient_err) {
  if (transient_err != nullptr) *transient_err = 0;
  // Failpoint: simulated accept failure (default EMFILE — fd
  // exhaustion), reported exactly like the real transient path below.
  if (const int e = core::fp_inject("net.accept", EMFILE)) {
    if (transient_err != nullptr) *transient_err = e;
    return SocketFd();
  }
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return SocketFd(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return SocketFd();
    // Transient per-connection failures (the peer reset before we
    // accepted, fd pressure) must not kill the listener.
    if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE ||
        errno == ENOBUFS || errno == ENOMEM || errno == EPROTO) {
      if (transient_err != nullptr) *transient_err = errno;
      return SocketFd();
    }
    throw_errno("accept");
  }
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) != 0) throw_errno("fcntl(F_SETFL)");
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: NODELAY failing (e.g. on a non-TCP test socket) only
  // costs latency, never correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

ssize_t read_some(int fd, void* buf, std::size_t n, bool& would_block) {
  would_block = false;
  // Failpoint: simulated peer reset mid-read — surfaces as EOF, exactly
  // like the real ECONNRESET mapping below.
  if (core::fp_inject("net.read", ECONNRESET) != 0) return 0;
  for (;;) {
    const ssize_t r = ::read(fd, buf, n);
    if (r >= 0) return r;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      would_block = true;
      return -1;
    }
    if (errno == ECONNRESET) return 0;  // peer vanished: treat as EOF
    throw_errno("read");
  }
}

ssize_t write_some(int fd, const void* buf, std::size_t n,
                   bool& would_block) {
  would_block = false;
  // Failpoints: "net.write" simulates a dead peer (the EPIPE/ECONNRESET
  // return below); "net.write.short" truncates the send to one byte so
  // partial-write resumption paths run under test control.
  if (core::fp_inject("net.write", ECONNRESET) != 0) return -1;
  if (core::fp_inject("net.write.short") != 0 && n > 1) n = 1;
  for (;;) {
    const ssize_t r = ::send(fd, buf, n, MSG_NOSIGNAL);
    if (r >= 0) return r;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      would_block = true;
      return -1;
    }
    if (errno == EPIPE || errno == ECONNRESET) return -1;  // dead peer
    throw_errno("send");
  }
}

void write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  std::size_t off = 0;
  while (off < n) {
    bool would_block = false;
    const ssize_t r = write_some(fd, p + off, n - off, would_block);
    if (r > 0) {
      off += static_cast<std::size_t>(r);
      continue;
    }
    if (would_block) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, /*ms=*/1000) < 0 && errno != EINTR) {
        throw_errno("poll");
      }
      continue;
    }
    throw ConnectionClosed("net: connection closed mid-write");
  }
}

}  // namespace flit::net
