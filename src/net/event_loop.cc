#include "src/net/event_loop.h"

#include <cerrno>

namespace robodet {

EventLoop::EventLoop() : epoll_(::epoll_create1(EPOLL_CLOEXEC)), wake_(CreateWakeupFd()) {
  if (ok() && !Add(wake_.get(), EPOLLIN)) {
    epoll_.reset();
  }
}

bool EventLoop::Add(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool EventLoop::Mod(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::Del(int fd) { (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr); }

int EventLoop::Wait(int timeout_ms, std::span<epoll_event> ready) {
  int n;
  do {
    n = ::epoll_wait(epoll_.get(), ready.data(), static_cast<int>(ready.size()), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return -1;
  }
  int stored = 0;
  for (int i = 0; i < n; ++i) {
    if (ready[i].data.fd == wake_.get()) {
      DrainWakeupFd(wake_.get());
    } else {
      ready[stored++] = ready[i];
    }
  }
  return stored;
}

void EventLoop::Wakeup() { NotifyWakeupFd(wake_.get()); }

}  // namespace robodet
