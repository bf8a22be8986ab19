// A thin epoll wrapper. Each worker thread owns one loop: it registers fds
// with level-triggered interest and waits for whatever is ready; the owner
// dispatches the events itself. The only thread-safe entry point is
// Wakeup, which interrupts a blocking Wait through an eventfd; everything
// else is owner-thread-only by design, so the loop needs no locks.
#ifndef ROBODET_SRC_NET_EVENT_LOOP_H_
#define ROBODET_SRC_NET_EVENT_LOOP_H_

#include <sys/epoll.h>

#include <cstdint>
#include <span>

#include "src/net/socket.h"

namespace robodet {

class EventLoop {
 public:
  EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // False when epoll/eventfd construction failed (the server refuses to
  // start rather than spin on a dead loop).
  bool ok() const { return static_cast<bool>(epoll_) && static_cast<bool>(wake_); }

  // `events` is an epoll mask (EPOLLIN/EPOLLOUT); each event reports its
  // fd in `data.fd`.
  bool Add(int fd, uint32_t events);
  bool Mod(int fd, uint32_t events);
  void Del(int fd);

  // Waits up to `timeout_ms` and stores the ready fds' events in `ready`.
  // A wakeup only ends the wait: it is drained here and never stored.
  // Returns the number stored, or -1 on epoll failure.
  int Wait(int timeout_ms, std::span<epoll_event> ready);

  // Thread-safe: interrupts a blocking Wait.
  void Wakeup();

 private:
  ScopedFd epoll_;
  ScopedFd wake_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_NET_EVENT_LOOP_H_
