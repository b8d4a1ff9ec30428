// client.hpp — blocking pipelined client for the flit network protocol.
//
// The counterpart to Server: enqueue() serializes requests into a local
// buffer without touching the socket, flush() writes the whole burst,
// read_reply() parses responses in order. That makes pipeline-depth-k
// traffic a loop of k enqueues, one flush, k read_replies — exactly the
// shape the server turns into one multi-op per readiness event.
//
// Not thread-safe; one Client per connection per thread (the loadgen
// runs one per worker thread, tests use it inline).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace flit::net {

class Client {
 public:
  static Client connect(const std::string& host, std::uint16_t port) {
    return Client(connect_tcp(host, port));
  }

  explicit Client(SocketFd fd) : fd_(std::move(fd)) {}

  int fd() const noexcept { return fd_.get(); }

  /// Serialize one request into the outgoing buffer (no I/O).
  void enqueue(std::initializer_list<std::string_view> argv) {
    append_request(out_, argv);
    ++pending_;
  }

  /// Same, for programmatic argv construction.
  void enqueue_parts(const std::string_view* parts, std::size_t n) {
    append_array_header(out_, n);
    for (std::size_t i = 0; i < n; ++i) append_bulk(out_, parts[i]);
    ++pending_;
  }

  std::size_t pending() const noexcept { return pending_; }

  /// Write every enqueued request to the socket (blocking).
  void flush() {
    if (out_.empty()) return;
    write_all(fd_.get(), out_.data(), out_.size());
    out_.clear();
  }

  /// Blocking read of the next in-order reply. Throws ConnectionClosed
  /// on EOF, std::runtime_error on a protocol error from the server side.
  Reply read_reply() {
    Reply r;
    for (;;) {
      const ParseStatus st = parser_.next(r);
      if (st == ParseStatus::kOk) {
        if (pending_ > 0) --pending_;
        return r;
      }
      if (st == ParseStatus::kError) {
        throw std::runtime_error("net: bad reply from server: " +
                                 parser_.error());
      }
      char buf[64 << 10];
      bool would_block = false;
      const ssize_t n = read_some(fd_.get(), buf, sizeof(buf), would_block);
      if (n == 0) {
        throw ConnectionClosed("net: server closed the connection");
      }
      if (n > 0) {
        parser_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      }
      // would_block cannot happen on a blocking socket; loop regardless.
    }
  }

  /// Convenience: one request, flushed, one reply.
  Reply command(std::initializer_list<std::string_view> argv) {
    enqueue(argv);
    flush();
    return read_reply();
  }

 private:
  SocketFd fd_;
  std::string out_;
  ReplyParser parser_;
  std::size_t pending_ = 0;
};

}  // namespace flit::net
