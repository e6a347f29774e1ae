#include "common/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace bsr {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("socket: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::send_all(std::initializer_list<std::string_view> parts) const {
  if (parts.size() > kMaxParts) {
    throw std::invalid_argument("socket: send_all takes at most " +
                                std::to_string(kMaxParts) + " parts");
  }
  iovec iov[kMaxParts];
  std::size_t count = 0;
  for (const std::string_view part : parts) {
    if (part.empty()) continue;
    // sendmsg() only reads through iov_base.
    iov[count++] = {const_cast<char*>(part.data()), part.size()};
  }
  iovec* next = iov;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd_, &msg,
#ifdef MSG_NOSIGNAL
                                MSG_NOSIGNAL
#else
                                0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    // Skip what was written: whole parts, then a prefix of the next one.
    auto sent = static_cast<std::size_t>(n);
    while (count > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
}

void Socket::shutdown_write() const { ::shutdown(fd_, SHUT_WR); }

Socket listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket: unix path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket(AF_UNIX)");
  Socket sock(fd);

  ::unlink(path.c_str());  // drop a stale socket file from a crashed daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    fail_errno("bind " + path);
  }
  if (::listen(fd, backlog) < 0) fail_errno("listen " + path);
  return sock;
}

Socket connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket: unix path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket(AF_UNIX)");
  Socket sock(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    fail_errno("connect " + path);
  }
  return sock;
}

Socket listen_tcp_localhost(std::uint16_t port, int backlog,
                            std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket(AF_INET)");
  Socket sock(fd);

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    fail_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, backlog) < 0) fail_errno("listen");

  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) < 0) {
      fail_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return sock;
}

Socket connect_tcp_localhost(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket(AF_INET)");
  Socket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    fail_errno("connect 127.0.0.1:" + std::to_string(port));
  }
  return sock;
}

Socket accept_one(const Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    // EBADF / EINVAL: the listener was closed out from under us by the
    // shutdown path — report "no more connections" rather than an error.
    if (errno == EBADF || errno == EINVAL || errno == ECONNABORTED) {
      return Socket();
    }
    fail_errno("accept");
  }
}

void LineReader::reserve_window() {
  if (capacity_ - end_ >= kWindow) return;
  // Move the unreturned bytes to the front, and grow when that still leaves
  // less than a window free. The new buffer is not zero-filled.
  const std::size_t kept = end_ - begin_;
  if (kept + kWindow > capacity_) {
    // Doubling, but never past what max_line lets the reader hold: the
    // caller has checked that kept <= max_line_.
    std::size_t capacity = std::max(2 * capacity_, kept + kWindow);
    if (max_line_ != 0) capacity = std::min(capacity, max_line_ + kWindow);
    auto grown = std::make_unique_for_overwrite<char[]>(capacity);
    if (kept > 0) std::memcpy(grown.get(), buffer_.get() + begin_, kept);
    buffer_ = std::move(grown);
    capacity_ = capacity;
  } else if (kept > 0) {
    std::memmove(buffer_.get(), buffer_.get() + begin_, kept);
  }
  searched_ -= begin_;
  begin_ = 0;
  end_ = kept;
}

std::optional<std::string> LineReader::read_line() {
  for (;;) {
    const char* const data = buffer_.get();
    const auto* nl =
        searched_ == end_
            ? nullptr
            : static_cast<const char*>(
                  std::memchr(data + searched_, '\n', end_ - searched_));
    const std::size_t length =
        (nl != nullptr ? static_cast<std::size_t>(nl - data) : end_) - begin_;
    if (max_line_ != 0 && length > max_line_) {
      throw std::length_error("line exceeds " + std::to_string(max_line_) +
                              " bytes");
    }
    if (nl != nullptr) {
      std::string line(data + begin_, length);
      begin_ += length + 1;
      if (begin_ == end_) begin_ = end_ = 0;
      searched_ = begin_;
      return line;
    }
    searched_ = end_;
    if (eof_) return std::nullopt;

    reserve_window();
    const ssize_t n = ::recv(fd_, buffer_.get() + end_, kWindow, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("recv");
    }
    if (n == 0) {
      eof_ = true;
      // Unterminated trailing bytes are dropped (protocol violation).
      begin_ = end_ = searched_ = 0;
      return std::nullopt;
    }
    end_ += static_cast<std::size_t>(n);
  }
}

}  // namespace bsr
