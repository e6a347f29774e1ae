// Thin RAII wrappers over local stream sockets for the serving subsystem:
// Unix-domain listeners/connections (the default transport in
// docs/SERVING.md) and localhost TCP as the fallback for environments
// without a writable socket path.
//
// Scope is deliberately narrow — blocking sockets, full-message send of
// several parts in one system call, and a buffered line reader for the
// newline-delimited JSON protocol. Failures throw std::runtime_error with
// errno text; callers at the daemon boundary convert them to loud stderr
// exits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace bsr {

/// Owns one socket file descriptor; closes it on destruction. Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Closes the descriptor now (idempotent).
  void close();

  /// Most parts one send_all() takes.
  static constexpr std::size_t kMaxParts = 8;

  /// Writes `parts` back to back, as one byte stream, with one sendmsg()
  /// per partial write: none is copied into a joint buffer. Throws
  /// std::invalid_argument for more than kMaxParts parts, and
  /// std::runtime_error on error or peer reset.
  void send_all(std::initializer_list<std::string_view> parts) const;

  /// Half-closes the write side so the peer sees EOF after our last byte.
  void shutdown_write() const;

 private:
  int fd_ = -1;
};

/// Creates, binds, and listens on a Unix-domain stream socket at `path`.
/// A stale file at `path` is unlinked first (daemon restart after a crash).
/// Throws on bind/listen failure or a path longer than sockaddr_un allows.
Socket listen_unix(const std::string& path, int backlog);

/// Connects to the Unix-domain socket at `path`; throws when no daemon is
/// listening there.
Socket connect_unix(const std::string& path);

/// Listens on 127.0.0.1:`port` (port 0 picks a free ephemeral port).
/// `bound_port`, when non-null, receives the actual port after bind.
Socket listen_tcp_localhost(std::uint16_t port, int backlog,
                            std::uint16_t* bound_port);

/// Connects to 127.0.0.1:`port`.
Socket connect_tcp_localhost(std::uint16_t port);

/// Accepts one connection on a listening socket; blocks. Returns an invalid
/// Socket when the listener has been closed from another thread (the
/// server's shutdown path) instead of throwing.
Socket accept_one(const Socket& listener);

/// Buffered reader yielding one '\n'-terminated line at a time from a
/// connected socket (the newline is stripped). Returns std::nullopt at EOF;
/// throws on read errors. Bytes after the last newline are discarded at EOF
/// — the protocol requires every request/response line to be terminated.
///
/// Each recv() writes up to kWindow bytes straight into the reader's own
/// buffer, which is compacted or grown only when less than a window is free
/// at its end, so a reply of tens of kilobytes arrives in one or two calls.
/// Lines are returned as strings of exactly their size, and each byte is
/// searched for '\n' once. With a nonzero `max_line`, a line longer than
/// that many bytes throws std::length_error (naming the limit) as soon as
/// more than that many of its bytes have arrived, so the reader buffers at
/// most `max_line` bytes plus one window.
class LineReader {
 public:
  /// Bytes one recv() may add.
  static constexpr std::size_t kWindow = std::size_t{64} << 10;

  explicit LineReader(const Socket& socket, std::size_t max_line = 0)
      : fd_(socket.fd()), max_line_(max_line) {}

  std::optional<std::string> read_line();

 private:
  /// Makes room for one window after end_.
  void reserve_window();

  int fd_ = -1;
  std::size_t max_line_ = 0;  ///< 0 = unbounded
  std::unique_ptr<char[]> buffer_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;     ///< first byte not yet returned
  std::size_t end_ = 0;       ///< one past the last byte received
  std::size_t searched_ = 0;  ///< [begin_, searched_) holds no '\n'
  bool eof_ = false;
};

}  // namespace bsr
