#include "common/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

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

void Socket::send_all(std::string_view data) const {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
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
    sent += static_cast<std::size_t>(n);
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

std::optional<std::string> LineReader::read_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', searched_);
    const std::size_t length = nl == std::string::npos ? buffer_.size() : nl;
    if (max_line_ != 0 && length > max_line_) {
      throw std::length_error("line exceeds " + std::to_string(max_line_) +
                              " bytes");
    }
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      searched_ = 0;
      return line;
    }
    searched_ = buffer_.size();
    if (eof_) return std::nullopt;

    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("recv");
    }
    if (n == 0) {
      eof_ = true;
      // Unterminated trailing bytes are dropped (protocol violation).
      buffer_.clear();
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace bsr
