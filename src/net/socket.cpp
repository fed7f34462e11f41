#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace subsum::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_sock_timeout(int fd, int opt, std::chrono::milliseconds d, const char* what) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(d.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((d.count() % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof tv) < 0) throw_errno(what);
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::set_send_timeout(std::chrono::milliseconds d) {
  set_sock_timeout(fd_, SO_SNDTIMEO, d, "setsockopt(SO_SNDTIMEO)");
}

void Socket::set_recv_timeout(std::chrono::milliseconds d) {
  set_sock_timeout(fd_, SO_RCVTIMEO, d, "setsockopt(SO_RCVTIMEO)");
}

void Socket::set_recv_buffer(size_t bytes) {
  const int v = static_cast<int>(bytes);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &v, sizeof v) < 0) {
    throw_errno("setsockopt(SO_RCVBUF)");
  }
}

void Socket::set_send_buffer(size_t bytes) {
  const int v = static_cast<int>(bytes);
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &v, sizeof v) < 0) {
    throw_errno("setsockopt(SO_SNDBUF)");
  }
}

void Socket::send_all(std::span<const std::byte> data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) throw NetTimeout("send timed out");
      throw_errno("send");
    }
    sent += static_cast<size_t>(n);
  }
}

bool Socket::recv_exact(std::span<std::byte> data) {
  size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::recv(fd_, data.data() + got, data.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) throw NetTimeout("recv timed out");
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF between messages
      throw NetError("connection closed mid-message");
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

size_t Socket::recv_some(std::span<std::byte> data) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data.data(), data.size(), 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) throw NetTimeout("recv timed out");
    throw_errno("recv");
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw_errno("bind");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, SOMAXCONN) < 0) {
    ::close(fd);
    throw_errno("listen");
  }
  fd_.store(fd);
}

std::optional<Socket> Listener::accept() {
  while (true) {
    const int lfd = fd_.load();
    if (lfd < 0) return std::nullopt;  // already closed
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return std::nullopt;  // listener closed (EBADF/EINVAL) or fatal
  }
}

void Listener::close() noexcept {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() unblocks a concurrent accept() reliably on Linux.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Socket connect_local(uint16_t port, std::chrono::milliseconds timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket s(fd);  // owns fd from here on
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  if (timeout.count() <= 0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      throw_errno("connect");
    }
  } else {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) throw_errno("fcntl");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      if (errno != EINPROGRESS) throw_errno("connect");
      pollfd pfd{fd, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) throw_errno("poll");
      if (rc == 0) throw NetTimeout("connect timed out");
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) throw_errno("getsockopt");
      if (err != 0) {
        errno = err;
        throw_errno("connect");
      }
    }
    if (::fcntl(fd, F_SETFL, flags) < 0) throw_errno("fcntl");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return s;
}

}  // namespace subsum::net
