#include "src/net/server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <utility>

namespace robodet {
namespace {

// Deadline sweep cadence: the epoll wait never blocks longer than this,
// so a timeout fires at most one sweep late.
constexpr int kSweepMs = 50;

}  // namespace

NetServer::NetServer(NetServerConfig config, NetHandler handler, MetricsRegistry& registry)
    : config_(std::move(config)),
      handler_(std::move(handler)),
      sink_{registry.FindOrCreateCounter("robodet_net_requests_total"),
            registry.FindOrCreateCounter("robodet_net_parse_errors_total"),
            registry.FindOrCreateCounter("robodet_net_bytes_total", {{"dir", "in"}}),
            registry.FindOrCreateCounter("robodet_net_bytes_total", {{"dir", "out"}})},
      m_accepted_(registry.FindOrCreateCounter("robodet_net_accepted_total")),
      m_shed_rejected_(
          registry.FindOrCreateCounter("robodet_net_shed_total", {{"mode", "reject"}})),
      m_shed_evicted_(registry.FindOrCreateCounter("robodet_net_shed_total", {{"mode", "evict"}})),
      m_timeout_read_(
          registry.FindOrCreateCounter("robodet_net_timeouts_total", {{"kind", "read"}})),
      m_timeout_idle_(
          registry.FindOrCreateCounter("robodet_net_timeouts_total", {{"kind", "idle"}})),
      m_timeout_write_(
          registry.FindOrCreateCounter("robodet_net_timeouts_total", {{"kind", "write"}})),
      m_open_(registry.FindOrCreateGauge("robodet_net_open_connections")) {
  config_.workers = std::max(1, config_.workers);
  clock_ = config_.clock != nullptr ? config_.clock : &own_clock_;
  per_worker_cap_ = std::max<size_t>(1, config_.max_connections /
                                            static_cast<size_t>(config_.workers));
}

NetServer::~NetServer() {
  Stop();
  Wait();
}

bool NetServer::Start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) {
      *error = "server already running";
    }
    return false;
  }
  stop_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  workers_.clear();
  workers_.reserve(static_cast<size_t>(config_.workers));

  // Bind worker 0 first: with a requested port of 0 the kernel picks one,
  // and every later worker binds that resolved port via SO_REUSEPORT.
  uint16_t port = config_.port;
  for (int i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    if (!worker->loop.ok()) {
      if (error != nullptr) {
        *error = "epoll/eventfd creation failed";
      }
      workers_.clear();
      return false;
    }
    auto listener = CreateListener(config_.bind_ip, port, /*reuseport=*/config_.workers > 1,
                                   config_.listen_backlog, error);
    if (!listener.has_value()) {
      workers_.clear();
      return false;
    }
    port = listener->port;
    worker->listener = std::move(*listener);
    worker->listener_open = true;
    workers_.push_back(std::move(worker));
  }
  port_ = port;

  running_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { RunWorker(w); });
  }
  return true;
}

void NetServer::RunWorker(Worker* worker) {
  worker->loop.Add(worker->listener.fd.get(), EPOLLIN,
                   [this, worker](uint32_t) { HandleAccept(worker); });

  bool drain_seen = false;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    if (draining_.load(std::memory_order_acquire)) {
      if (!drain_seen) {
        drain_seen = true;
        worker->drain_deadline = clock_->Now() + config_.drain_timeout;
        if (worker->listener_open) {
          worker->loop.Del(worker->listener.fd.get());
          worker->listener.fd.reset();
          worker->listener_open = false;
        }
        // Snapshot the fds: BeginDrain on an idle connection finishes it
        // immediately and DestroyConn mutates the map.
        std::vector<int> fds;
        fds.reserve(worker->conns.size());
        for (const auto& [fd, entry] : worker->conns) {
          (void)entry;
          fds.push_back(fd);
        }
        for (int fd : fds) {
          const auto it = worker->conns.find(fd);
          if (it == worker->conns.end()) {
            continue;
          }
          it->second->BeginDrain();
          if (it->second->finished()) {
            DestroyConn(worker, fd);
          } else {
            UpdateInterest(worker, fd, it->second.get());
          }
        }
      }
      if (worker->conns.empty()) {
        break;  // Drained clean.
      }
      if (clock_->Now() >= worker->drain_deadline) {
        // Grace expired: force-close stragglers.
        std::vector<int> fds;
        fds.reserve(worker->conns.size());
        for (const auto& [fd, entry] : worker->conns) {
          (void)entry;
          fds.push_back(fd);
        }
        for (int fd : fds) {
          DestroyConn(worker, fd);
        }
        break;
      }
    }
    if (worker->loop.PollOnce(kSweepMs) < 0) {
      break;  // Epoll died; nothing recoverable.
    }
    SweepDeadlines(worker, clock_->Now());
  }

  // Worker exit: everything closes (RAII), gauge reflects it.
  if (!worker->conns.empty()) {
    std::vector<int> fds;
    fds.reserve(worker->conns.size());
    for (const auto& [fd, entry] : worker->conns) {
      (void)entry;
      fds.push_back(fd);
    }
    for (int fd : fds) {
      DestroyConn(worker, fd);
    }
  }
}

void NetServer::HandleAccept(Worker* worker) {
  // Accept until the backlog drains; per-connection failures just skip.
  for (;;) {
    AcceptedSocket accepted;
    const AcceptStatus status = AcceptOnce(worker->listener.fd.get(), &accepted);
    if (status == AcceptStatus::kWouldBlock) {
      return;
    }
    if (status == AcceptStatus::kError) {
      return;
    }
    if (config_.accepted_sndbuf > 0) {
      SetSendBufferBytes(accepted.fd.get(), config_.accepted_sndbuf);
    }
    AdmitConnection(worker, std::move(accepted));
  }
}

void NetServer::AdmitConnection(Worker* worker, AcceptedSocket accepted) {
  m_accepted_->Inc();

  bool shed_newcomer = false;
  if (worker->conns.size() >= per_worker_cap_) {
    // At capacity. Robot-first: evict an idle keep-alive connection whose
    // last request classified as a robot; humans are never evicted.
    int victim = -1;
    for (const auto& [fd, entry] : worker->conns) {
      if (entry->robot() && entry->idle()) {
        victim = fd;
        break;
      }
    }
    if (victim >= 0) {
      m_shed_evicted_->Inc();
      DestroyConn(worker, victim);
    } else {
      shed_newcomer = true;
    }
  }

  ConnectionInfo info;
  info.peer_ip = accepted.peer_ip;
  info.peer_port = accepted.peer_port;
  info.id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  auto conn = std::make_unique<NetConnection>(std::move(accepted.fd), info, &config_.limits,
                                              &handler_, clock_, sink_);

  if (shed_newcomer) {
    m_shed_rejected_->Inc();
    conn->ShedWith(StatusCode::kServiceUnavailable,
                   "server at connection capacity; try again shortly");
    // One read+write attempt: drain the request bytes already queued (so
    // the close sends FIN, not RST) and flush the canned 503. It fits the
    // socket buffer, so the connection never costs an epoll slot.
    if (!conn->OnReadable()) {
      return;
    }
  }
  RegisterConn(worker, std::move(conn));
}

void NetServer::RegisterConn(Worker* worker, std::unique_ptr<NetConnection> conn) {
  const int fd = conn->fd();
  if (!worker->loop.Add(fd, conn->WantedEvents(),
                        [this, worker, fd](uint32_t events) {
                          HandleConnEvent(worker, fd, events);
                        })) {
    return;  // epoll refused the fd; drop the connection.
  }
  worker->conns.emplace(fd, std::move(conn));
  m_open_->Add(1);
}

void NetServer::HandleConnEvent(Worker* worker, int fd, uint32_t events) {
  const auto it = worker->conns.find(fd);
  if (it == worker->conns.end()) {
    return;
  }
  NetConnection* conn = it->second.get();

  bool alive = true;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    // Let the read path observe the error/EOF and shut down in order.
    alive = conn->OnReadable();
  } else {
    if ((events & EPOLLOUT) != 0) {
      alive = conn->OnWritable();
    }
    if (alive && (events & EPOLLIN) != 0) {
      alive = conn->OnReadable();
    }
  }

  if (!alive || conn->finished()) {
    DestroyConn(worker, fd);
    return;
  }
  UpdateInterest(worker, fd, conn);
}

void NetServer::UpdateInterest(Worker* worker, int fd, NetConnection* conn) {
  worker->loop.Mod(fd, conn->WantedEvents());
}

void NetServer::SweepDeadlines(Worker* worker, TimeMs now) {
  std::vector<int> expired;
  std::vector<int> staged_408;
  for (auto& [fd, entry] : worker->conns) {
    switch (entry->CheckDeadline(now)) {
      case TimeoutKind::kNone:
        break;
      case TimeoutKind::kRead:
        m_timeout_read_->Inc();
        staged_408.push_back(fd);
        break;
      case TimeoutKind::kIdle:
        m_timeout_idle_->Inc();
        expired.push_back(fd);
        break;
      case TimeoutKind::kWrite:
        m_timeout_write_->Inc();
        expired.push_back(fd);
        break;
    }
  }
  for (int fd : expired) {
    DestroyConn(worker, fd);
  }
  // Read timeouts stage a 408; give the flush a chance now and close only
  // on a hard error. If the peer won't drain it, the write deadline the
  // stager armed expires in a later sweep.
  for (int fd : staged_408) {
    const auto it = worker->conns.find(fd);
    if (it == worker->conns.end()) {
      continue;
    }
    if (!it->second->OnWritable()) {
      DestroyConn(worker, fd);
    } else {
      UpdateInterest(worker, fd, it->second.get());
    }
  }
}

void NetServer::DestroyConn(Worker* worker, int fd) {
  const auto it = worker->conns.find(fd);
  if (it == worker->conns.end()) {
    return;
  }
  worker->loop.Del(fd);
  worker->conns.erase(it);  // ScopedFd closes the socket.
  m_open_->Add(-1);
}

void NetServer::BeginDrain() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  draining_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    worker->loop.Wakeup();
  }
}

void NetServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    worker->loop.Wakeup();
  }
}

void NetServer::Wait() {
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace robodet
