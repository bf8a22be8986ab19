// Thin POSIX socket layer under the event loop: an RAII fd, one-shot
// non-blocking read/write wrappers with explicit would-block/EOF results,
// and listener/eventfd construction. Everything above this file deals in
// IoResult and ScopedFd, never raw errno juggling.
#ifndef ROBODET_SRC_NET_SOCKET_H_
#define ROBODET_SRC_NET_SOCKET_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "src/http/request.h"

namespace robodet {

// Owns a file descriptor; closes on destruction. Movable, not copyable.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      reset(other.release());
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  explicit operator bool() const { return fd_ >= 0; }

  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Outcome of one non-blocking read/write attempt. Exactly one of
// {n > 0, would_block, eof, error != 0} describes what happened, except
// that a short write reports n > 0 and the caller retries the rest.
struct IoResult {
  ssize_t n = 0;
  bool would_block = false;
  bool eof = false;  // Orderly peer shutdown (reads only).
  int error = 0;     // errno of a hard failure.
};

// One read/write attempt; EINTR is retried internally, EAGAIN/EWOULDBLOCK
// reported as would_block.
IoResult ReadOnce(int fd, char* buf, size_t len);
IoResult WriteOnce(int fd, const char* buf, size_t len);

// Best-effort socket tuning; failures are ignored (TCP_NODELAY on a
// non-TCP fd in a test harness must not kill the connection).
void SetTcpNoDelay(int fd);
void SetSendBufferBytes(int fd, int bytes);

// A bound, listening, non-blocking TCP socket.
struct ListenSocket {
  ScopedFd fd;
  uint16_t port = 0;  // Actual port (kernel-assigned when 0 was requested).
};

// Creates a listener on `bind_ip:port`. With `reuseport`, multiple worker
// loops bind the same port and the kernel load-balances accepts across
// them. Returns nullopt (and fills *error) on failure.
std::optional<ListenSocket> CreateListener(const std::string& bind_ip, uint16_t port,
                                           bool reuseport, std::string* error);

// One accepted connection, already non-blocking with TCP_NODELAY.
struct AcceptedSocket {
  ScopedFd fd;
  IpAddress peer_ip;
};

enum class AcceptStatus { kAccepted, kWouldBlock, kError };
// Accepts one pending connection; transient per-connection errors
// (ECONNABORTED) are reported as kError and the caller simply moves on.
AcceptStatus AcceptOnce(int listener_fd, AcceptedSocket* out);

// Event loop wakeup primitive (eventfd).
ScopedFd CreateWakeupFd();
void NotifyWakeupFd(int fd);
void DrainWakeupFd(int fd);

// Blocking client connect to `ip:port` — the load generator's and the
// loopback tests' entry point; the serving path never calls it.
std::optional<ScopedFd> ConnectTcp(const std::string& ip, uint16_t port,
                                   std::string* error);

}  // namespace robodet

#endif  // ROBODET_SRC_NET_SOCKET_H_
