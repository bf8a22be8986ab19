#include "src/net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace robodet {
namespace {

// Pending-connection queue of each listener.
constexpr int kListenBacklog = 128;

bool FillSockaddr(const std::string& ip, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return inet_pton(AF_INET, ip.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  fd_ = fd;
}

IoResult ReadOnce(int fd, char* buf, size_t len) {
  IoResult result;
  for (;;) {
    const ssize_t n = ::read(fd, buf, len);
    if (n > 0) {
      result.n = n;
      return result;
    }
    if (n == 0) {
      result.eof = true;
      return result;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    result.error = errno;
    return result;
  }
}

IoResult WriteOnce(int fd, const char* buf, size_t len) {
  IoResult result;
  for (;;) {
    // MSG_NOSIGNAL: a peer that already reset must surface as EPIPE, not
    // as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n >= 0) {
      result.n = n;
      return result;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    result.error = errno;
    return result;
  }
}

void SetTcpNoDelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetSendBufferBytes(int fd, int bytes) {
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
}

std::optional<ListenSocket> CreateListener(const std::string& bind_ip, uint16_t port,
                                           bool reuseport, std::string* error) {
  const auto fail = [error](const std::string& what) -> std::optional<ListenSocket> {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    return std::nullopt;
  };

  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd) {
    return fail("socket()");
  }
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    return fail("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr;
  if (!FillSockaddr(bind_ip, port, &addr)) {
    if (error != nullptr) {
      *error = "unparseable bind address '" + bind_ip + "'";
    }
    return std::nullopt;
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind(" + bind_ip + ":" + std::to_string(port) + ")");
  }
  if (::listen(fd.get(), kListenBacklog) != 0) {
    return fail("listen()");
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return fail("getsockname()");
  }
  ListenSocket listener;
  listener.fd = std::move(fd);
  listener.port = ntohs(bound.sin_port);
  return listener;
}

AcceptStatus AcceptOnce(int listener_fd, AcceptedSocket* out) {
  sockaddr_in peer;
  socklen_t peer_len = sizeof(peer);
  for (;;) {
    const int fd = ::accept4(listener_fd, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      out->fd = ScopedFd(fd);
      out->peer_ip = IpAddress(ntohl(peer.sin_addr.s_addr));
      SetTcpNoDelay(fd);
      return AcceptStatus::kAccepted;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return AcceptStatus::kWouldBlock;
    }
    return AcceptStatus::kError;
  }
}

ScopedFd CreateWakeupFd() {
  return ScopedFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
}

void NotifyWakeupFd(int fd) {
  const uint64_t one = 1;
  (void)!::write(fd, &one, sizeof(one));
}

void DrainWakeupFd(int fd) {
  uint64_t value = 0;
  (void)!::read(fd, &value, sizeof(value));
}

std::optional<ScopedFd> ConnectTcp(const std::string& ip, uint16_t port,
                                   std::string* error) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) {
    if (error != nullptr) {
      *error = std::string("socket(): ") + std::strerror(errno);
    }
    return std::nullopt;
  }
  sockaddr_in addr;
  if (!FillSockaddr(ip, port, &addr)) {
    if (error != nullptr) {
      *error = "unparseable address '" + ip + "'";
    }
    return std::nullopt;
  }
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      SetTcpNoDelay(fd.get());
      return fd;
    }
    if (errno == EINTR) {
      continue;
    }
    if (error != nullptr) {
      *error = "connect(" + ip + ":" + std::to_string(port) +
               "): " + std::strerror(errno);
    }
    return std::nullopt;
  }
}

}  // namespace robodet
