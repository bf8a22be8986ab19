// Epoll load engine: one process, a few threads, each a single epoll loop
// over its share of the visitors, so the daemon's workers rather than the
// client set the pace. The engine records how late it ran, so a stalled
// generator is visible.
#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <list>
#include <thread>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// Closed loop: connections kept busy at once, whatever the thread count.
constexpr int kClosedSlots = 4;
// A load still running after this long has failed.
constexpr uint64_t kTimeoutNs = 120'000'000'000ULL;

// Finds the first complete response in `in`: its status, body and total
// length. Returns false while more bytes are needed; sets *bad on framing
// the benchmark does not accept (every robodet response carries a
// Content-Length).
bool FrameResponse(std::string_view in, int* status, std::string_view* body, size_t* total,
                   bool* bad) {
  const size_t header_end = in.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    return false;
  }
  const std::string_view head = in.substr(0, header_end);
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
    *bad = true;
    return false;
  }
  *status = std::atoi(std::string(head.substr(9, 3)).c_str());
  size_t length = std::string_view::npos;
  size_t line = head.find("\r\n");
  while (line != std::string_view::npos) {
    const size_t next = head.find("\r\n", line + 2);
    const std::string_view field = head.substr(line + 2, next - line - 2);
    constexpr std::string_view kName = "content-length:";
    if (field.size() > kName.size() && strncasecmp(field.data(), kName.data(), kName.size()) == 0) {
      length = static_cast<size_t>(std::atoll(std::string(field.substr(kName.size())).c_str()));
    }
    line = next;
  }
  if (length == std::string_view::npos) {
    *bad = true;
    return false;
  }
  if (in.size() < header_end + 4 + length) {
    return false;
  }
  *body = in.substr(header_end + 4, length);
  *total = header_end + 4 + length;
  return true;
}

struct InFlight {
  Fetch fetch;
  uint64_t due_ns;
};

struct Conn {
  int fd = -1;
  Visitor* visitor = nullptr;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<InFlight> inflight;
  bool want_out = false;
  // When the kernel received the bytes of the latest read, on the
  // steady clock.
  uint64_t rx_ns = 0;
  // The open view's latency so far; negative when none is open.
  double view_ms = -1.0;
};

// The kernel's receive timestamps (SO_TIMESTAMPNS) are on the real-time
// clock; this maps them onto NowNs()'s steady clock.
int64_t RealtimeToSteadyNs() {
  timespec real{};
  clock_gettime(CLOCK_REALTIME, &real);
  const uint64_t steady = NowNs();
  return static_cast<int64_t>(steady) -
         (static_cast<int64_t>(real.tv_sec) * 1000000000LL + real.tv_nsec);
}

class Engine {
 public:
  Engine(const LoadOptions& options, int slots, std::vector<std::unique_ptr<Visitor>> visitors)
      : options_(options), slots_(slots), visitors_(std::move(visitors)) {}

  ~Engine() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) {
        ::close(conn.fd);
      }
    }
    if (timer_fd_ >= 0) {
      ::close(timer_fd_);
    }
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
    }
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // `start` is shared by every client thread; in an open loop this
  // thread's first visitor arrives at `first_arrival`.
  LoadReport Run(uint64_t start, uint64_t first_arrival) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    const uint64_t deadline = start + kTimeoutNs;
    if (options_.open_loop) {
      timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = nullptr;  // The timer.
      epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
      first_arrival_ns_ = first_arrival;
      OnTimer();
    } else {
      while (next_ < visitors_.size() && static_cast<int>(conns_.size()) < slots_) {
        StartVisitor(NowNs());
      }
    }
    epoll_event events[64];
    while (!conns_.empty() || next_ < visitors_.size()) {
      if (NowNs() > deadline) {
        Fail("timed out with " + std::to_string(conns_.size()) + " connections open");
        for (Conn& conn : conns_) {
          report_.failed += conn.inflight.size();
        }
        break;
      }
      const int n = epoll_wait(epoll_fd_, events, 64, options_.open_loop ? 0 : 100);
      for (int i = 0; i < n; ++i) {
        if (events[i].data.ptr == nullptr) {
          OnTimer();
          continue;
        }
        Conn* conn = static_cast<Conn*>(events[i].data.ptr);
        if ((events[i].events & EPOLLOUT) != 0 && conn->fd >= 0) {
          Flush(*conn);
        }
        if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && conn->fd >= 0) {
          Read(*conn);
        }
      }
      Reap();
    }
    report_.elapsed_s = static_cast<double>(last_done_ns_ > start ? last_done_ns_ - start : 0) /
                        1e9;
    return std::move(report_);
  }

 private:
  void Fail(std::string message) {
    if (report_.errors.size() < 8) {
      report_.errors.push_back(std::move(message));
    }
  }

  void OnTimer() {
    uint64_t expirations = 0;
    if (::read(timer_fd_, &expirations, sizeof(expirations)) < 0 && errno != EAGAIN) {
      Fail(std::string("timerfd read: ") + std::strerror(errno));
    }
    const double period_ns = 1e9 / options_.arrivals_per_s;
    const uint64_t now = NowNs();
    while (next_ < visitors_.size()) {
      const uint64_t due =
          first_arrival_ns_ + static_cast<uint64_t>(static_cast<double>(next_) * period_ns);
      if (due > now) {
        itimerspec spec{};
        spec.it_value.tv_sec = static_cast<time_t>(due / 1000000000ULL);
        spec.it_value.tv_nsec = static_cast<long>(due % 1000000000ULL);
        timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
        break;
      }
      report_.late_ms.push_back(Ms(NowNs() - due));
      StartVisitor(due);
    }
  }

  void StartVisitor(uint64_t due) {
    Visitor* visitor = visitors_[next_++].get();
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Responses are timed from when the kernel received them, not from
    // when this thread got round to reading them: a client busy running
    // another visitor's scripts must not add its own delay.
    setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    conns_.emplace_back();
    Conn& conn = conns_.back();
    conn.fd = fd;
    conn.visitor = visitor;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      Fail(std::string("connect: ") + std::strerror(errno));
      Close(conn);
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.ptr = &conn;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conn.want_out = true;
    SendNextBatch(conn, due);
  }

  // Sends the visitor's next batch, or retires the visitor when it has
  // none.
  void SendNextBatch(Conn& conn, uint64_t due) {
    std::vector<Fetch> batch = conn.visitor->NextBatch();
    if (batch.empty()) {
      Close(conn);
      return;
    }
    for (Fetch& fetch : batch) {
      conn.out += RenderRequest(fetch);
      ++report_.attempted;
      ++report_.sent[static_cast<size_t>(fetch.signal)];
      conn.inflight.push_back(InFlight{std::move(fetch), due});
    }
    Flush(conn);
  }

  void Flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == ENOTCONN || errno == EINTR)) {
        break;  // Still connecting, or the socket buffer is full.
      }
      Fail(std::string("send: ") + std::strerror(errno));
      Abort(conn);
      return;
    }
    const bool want_out = conn.out_off < conn.out.size();
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    if (want_out != conn.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
      ev.data.ptr = &conn;
      epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_out = want_out;
    }
  }

  void Read(Conn& conn) {
    char buf[65536];
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
    for (;;) {
      iovec iov{buf, sizeof(buf)};
      msghdr msg{};
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      const ssize_t n = ::recvmsg(conn.fd, &msg, 0);
      if (n > 0) {
        conn.rx_ns = NowNs();
        for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr; c = CMSG_NXTHDR(&msg, c)) {
          if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
            timespec ts{};
            std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
            const int64_t rx = static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec +
                               realtime_to_steady_ns_;
            // A clock step mid-run would put the stamp outside this
            // window; the read time then stands.
            if (rx > 0 && static_cast<uint64_t>(rx) <= conn.rx_ns) {
              conn.rx_ns = static_cast<uint64_t>(rx);
            }
          }
        }
        conn.in.append(buf, static_cast<size_t>(n));
        if (!Deliver(conn)) {
          return;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        return;
      }
      // Closed or reset with responses still owed.
      if (!conn.inflight.empty()) {
        Fail("connection closed with " + std::to_string(conn.inflight.size()) +
             " responses owed" + (n < 0 ? std::string(": ") + std::strerror(errno) : ""));
        Abort(conn);
      } else {
        Close(conn);
      }
      return;
    }
  }

  // Hands every complete response to its visitor; false once the
  // connection is gone.
  bool Deliver(Conn& conn) {
    size_t consumed = 0;
    for (;;) {
      int status = 0;
      std::string_view body;
      size_t total = 0;
      bool bad = false;
      const std::string_view rest = std::string_view(conn.in).substr(consumed);
      if (!FrameResponse(rest, &status, &body, &total, &bad)) {
        if (bad || (!rest.empty() && conn.inflight.empty())) {
          Fail("unframeable response bytes");
          Abort(conn);
          return false;
        }
        break;
      }
      if (conn.inflight.empty()) {
        Fail("response without a request");
        Abort(conn);
        return false;
      }
      InFlight done = std::move(conn.inflight.front());
      conn.inflight.pop_front();
      last_done_ns_ = NowNs();
      ++report_.completed;
      const double latency = Ms(std::max(conn.rx_ns, done.due_ns) - done.due_ns);
      report_.latency_ms.push_back(latency);
      if (done.fetch.starts_view) {
        EndView(conn);
        conn.view_ms = 0.0;
      }
      conn.view_ms += latency;
      if (status != done.fetch.expect_status) {
        ++report_.failed;
        Fail("status " + std::to_string(status) + " (want " +
             std::to_string(done.fetch.expect_status) + ") for " + done.fetch.target);
      }
      conn.visitor->OnResponse(done.fetch, status, body);
      if (!options_.open_loop) {
        report_.ref_cpu_s += RunReferenceUnit();
        ++report_.ref_units;
      }
      consumed += total;
      if (conn.inflight.empty()) {
        conn.in.erase(0, consumed);
        consumed = 0;
        SendNextBatch(conn, NowNs());
        if (conn.fd < 0) {
          return false;
        }
      }
    }
    conn.in.erase(0, consumed);
    return true;
  }

  void EndView(Conn& conn) {
    if (conn.view_ms >= 0.0) {
      report_.view_ms.push_back(conn.view_ms);
      conn.view_ms = -1.0;
    }
  }

  // The visitor cannot go on: its outstanding requests count as failed,
  // and its open view is not complete.
  void Abort(Conn& conn) {
    report_.failed += conn.inflight.size();
    conn.inflight.clear();
    conn.view_ms = -1.0;
    Close(conn);
  }

  void Close(Conn& conn) {
    EndView(conn);
    if (conn.fd >= 0) {
      epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      ::close(conn.fd);
      conn.fd = -1;
    }
  }

  // Drops closed connections and, in a closed loop, refills their slots.
  void Reap() {
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->fd < 0) {
        it = conns_.erase(it);
        if (!options_.open_loop && next_ < visitors_.size()) {
          StartVisitor(NowNs());
        }
      } else {
        ++it;
      }
    }
  }

  LoadOptions options_;
  int slots_;  // Closed loop: connections kept busy.
  std::vector<std::unique_ptr<Visitor>> visitors_;
  size_t next_ = 0;
  std::list<Conn> conns_;  // Stable addresses: epoll holds pointers.
  const int64_t realtime_to_steady_ns_ = RealtimeToSteadyNs();
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  uint64_t first_arrival_ns_ = 0;
  uint64_t last_done_ns_ = 0;
  LoadReport report_;
};

}  // namespace

LoadReport RunLoad(const LoadOptions& options, std::vector<std::unique_ptr<Visitor>> visitors) {
  const int threads = options.open_loop ? 1 : 2;
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  const int holders = options.open_loop ? std::max(0, cpus - 1) : 0;
  // Visitors are dealt round-robin, so each thread's share is the same mix.
  std::vector<std::vector<std::unique_ptr<Visitor>>> shares(static_cast<size_t>(threads));
  for (size_t i = 0; i < visitors.size(); ++i) {
    shares[i % static_cast<size_t>(threads)].push_back(std::move(visitors[i]));
  }
  // The kernel turns receive timestamping on while any socket asks for it
  // and patches it out again when the last one closes, a stall of every
  // CPU. Short connections would flip it constantly; this socket holds it
  // on for the whole load.
  const int stamp_holder = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  const int one = 1;
  setsockopt(stamp_holder, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
  LoadOptions share_options = options;
  share_options.arrivals_per_s = options.arrivals_per_s / threads;
  const uint64_t start = NowNs();
  const double period_ns = options.arrivals_per_s > 0 ? 1e9 / options.arrivals_per_s : 0.0;
  std::vector<LoadReport> reports(static_cast<size_t>(threads));
  std::atomic<bool> done{false};
  std::vector<std::thread> holding;
  for (int i = 0; i < holders; ++i) {
    holding.emplace_back([&done] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!done.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Engine engine(share_options, kClosedSlots / threads,
                    std::move(shares[static_cast<size_t>(t)]));
      reports[static_cast<size_t>(t)] =
          engine.Run(start, start + static_cast<uint64_t>(period_ns * t));
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  done = true;
  for (std::thread& holder : holding) {
    holder.join();
  }
  ::close(stamp_holder);
  LoadReport merged;
  for (LoadReport& r : reports) {
    merged.attempted += r.attempted;
    merged.completed += r.completed;
    merged.failed += r.failed;
    for (size_t s = 0; s < merged.sent.size(); ++s) {
      merged.sent[s] += r.sent[s];
    }
    merged.elapsed_s = std::max(merged.elapsed_s, r.elapsed_s);
    merged.ref_units += r.ref_units;
    merged.ref_cpu_s += r.ref_cpu_s;
    merged.latency_ms.insert(merged.latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    merged.view_ms.insert(merged.view_ms.end(), r.view_ms.begin(), r.view_ms.end());
    merged.late_ms.insert(merged.late_ms.end(), r.late_ms.begin(), r.late_ms.end());
    merged.errors.insert(merged.errors.end(), r.errors.begin(), r.errors.end());
  }
  return merged;
}

}  // namespace perfbench
