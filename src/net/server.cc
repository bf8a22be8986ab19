#include "src/net/server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

namespace robodet {
namespace {

// Deadline sweep cadence: the epoll wait never blocks longer than this,
// so a timeout fires at most one sweep late.
constexpr int kSweepMs = 50;

// Most ready events one wait returns; the rest wait for the next turn.
constexpr size_t kMaxEventsPerWait = 64;

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
    auto listener =
        CreateListener(config_.bind_ip, port, /*reuseport=*/config_.workers > 1, error);
    if (!listener.has_value()) {
      workers_.clear();
      return false;
    }
    port = listener->port;
    worker->listener = std::move(*listener);
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

template <typename Pred>
void NetServer::DestroyIf(Worker* worker, Pred close) {
  for (auto it = worker->conns.begin(); it != worker->conns.end();) {
    it = close(it->second) ? DestroyConn(worker, it) : std::next(it);
  }
}

NetServer::ConnMap::iterator NetServer::DestroyConn(Worker* worker, ConnMap::iterator it) {
  worker->loop.Del(it->first);
  m_open_->Add(-1);
  return worker->conns.erase(it);  // ScopedFd closes the socket.
}

void NetServer::RunWorker(Worker* worker) {
  worker->loop.Add(worker->listener.fd.get(), EPOLLIN);

  std::array<epoll_event, kMaxEventsPerWait> ready;
  TimeMs drain_deadline = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (draining_.load(std::memory_order_acquire)) {
      if (worker->listener.fd) {  // The drain's first turn closes it.
        drain_deadline = clock_->Now() + config_.drain_timeout;
        worker->loop.Del(worker->listener.fd.get());
        worker->listener.fd.reset();
        // An idle connection finishes the moment it starts draining.
        DestroyIf(worker, [&](ConnEntry& entry) {
          entry.conn->BeginDrain();
          if (entry.conn->finished()) {
            return true;
          }
          UpdateInterest(worker, entry);
          return false;
        });
      }
      // Drained clean, or the grace expired and the stragglers are
      // force-closed below.
      if (worker->conns.empty() || clock_->Now() >= drain_deadline) {
        break;
      }
    }
    const int n = worker->loop.Wait(kSweepMs, ready);
    if (n < 0) {
      break;  // Epoll died; nothing recoverable.
    }
    for (int i = 0; i < n; ++i) {
      const int fd = ready[i].data.fd;
      if (fd == worker->listener.fd.get()) {
        HandleAccept(worker);
      } else {
        HandleConnEvent(worker, fd, ready[i].events);
      }
    }
    SweepDeadlines(worker, clock_->Now());
  }

  // Worker exit: everything closes (RAII), gauge reflects it.
  DestroyIf(worker, [](const ConnEntry&) { return true; });
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
    const auto victim = std::find_if(worker->conns.begin(), worker->conns.end(),
                                     [](const ConnMap::value_type& entry) {
                                       return entry.second.conn->robot() &&
                                              entry.second.conn->idle();
                                     });
    if (victim != worker->conns.end()) {
      m_shed_evicted_->Inc();
      DestroyConn(worker, victim);
    } else {
      shed_newcomer = true;
    }
  }

  auto conn = std::make_unique<NetConnection>(std::move(accepted.fd), accepted.peer_ip,
                                              &config_.limits, &handler_, clock_, sink_);

  if (shed_newcomer) {
    m_shed_rejected_->Inc();
    conn->StageError(StatusCode::kServiceUnavailable,
                     "server at connection capacity; try again shortly");
    // One read+write attempt: drain the request bytes already queued (so
    // the close sends FIN, not RST) and flush the canned 503. It fits the
    // socket buffer, so the connection never costs an epoll slot.
    if (!conn->OnReadable()) {
      return;
    }
  }
  const int fd = conn->fd();
  const uint32_t events = conn->WantedEvents();
  if (!worker->loop.Add(fd, events)) {
    return;  // epoll refused the fd; drop the connection.
  }
  worker->conns.emplace(fd, ConnEntry{std::move(conn), events});
  m_open_->Add(1);
}

void NetServer::HandleConnEvent(Worker* worker, int fd, uint32_t events) {
  const auto it = worker->conns.find(fd);
  if (it == worker->conns.end()) {
    return;
  }
  NetConnection* conn = it->second.conn.get();

  bool alive = true;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    // Let the read path observe the error/EOF and shut down in order.
    // Under backpressure it reads nothing, so the flush observes it.
    alive = conn->OnReadable() && conn->OnWritable();
  } else {
    if ((events & EPOLLOUT) != 0) {
      alive = conn->OnWritable();
    }
    if (alive && (events & EPOLLIN) != 0) {
      alive = conn->OnReadable();
    }
  }

  if (!alive || conn->finished()) {
    DestroyConn(worker, it);
    return;
  }
  UpdateInterest(worker, it->second);
}

void NetServer::UpdateInterest(Worker* worker, ConnEntry& entry) {
  const uint32_t events = entry.conn->WantedEvents();
  if (events != entry.registered_events) {
    worker->loop.Mod(entry.conn->fd(), events);
    entry.registered_events = events;
  }
}

void NetServer::SweepDeadlines(Worker* worker, TimeMs now) {
  DestroyIf(worker, [&](ConnEntry& entry) {
    NetConnection& conn = *entry.conn;
    switch (conn.CheckDeadline(now)) {
      case TimeoutKind::kNone:
        return false;
      case TimeoutKind::kRead:
        // A read timeout stages a 408; give the flush a chance now and
        // close only on a hard error. If the peer won't drain it, the
        // write deadline the stager armed expires in a later sweep.
        m_timeout_read_->Inc();
        if (!conn.OnWritable()) {
          return true;
        }
        UpdateInterest(worker, entry);
        return false;
      case TimeoutKind::kIdle:
        m_timeout_idle_->Inc();
        return true;
      case TimeoutKind::kWrite:
        m_timeout_write_->Inc();
        return true;
    }
    return false;
  });
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
