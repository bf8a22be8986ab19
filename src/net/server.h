// TCP front end: accepts real connections and drives NetConnection state
// machines over epoll. One worker thread per loop; every worker owns its
// own SO_REUSEPORT listener, so the kernel spreads incoming connections
// and no accept lock exists anywhere. Each worker owns its connections in
// one fd-keyed map and dispatches its own epoll events. The handler runs
// on worker threads — it must be thread-safe, and because the kernel
// spreads by 4-tuple, two connections from the SAME client can be served
// concurrently.
//
// Overload policy is robot-first: when a worker is at its connection cap,
// an idle keep-alive connection whose last request classified as a robot
// is evicted to make room; with no robot to evict, the newcomer gets a
// canned 503 and close. Humans keep their connections; robots pay first —
// the paper's asymmetry applied at the socket layer.
#ifndef ROBODET_SRC_NET_SERVER_H_
#define ROBODET_SRC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/util/clock.h"

namespace robodet {

struct NetServerConfig {
  std::string bind_ip = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; read the result from port().
  int workers = 1;
  // Across all workers; each worker enforces max(1, max_connections/workers).
  size_t max_connections = 1024;
  ConnectionLimits limits;
  // Grace for BeginDrain before in-flight connections are force-closed.
  TimeMs drain_timeout = 5 * kSecond;
  // >0: shrink SO_SNDBUF on accepted sockets — torture tests use a tiny
  // buffer to force partial writes through the backpressure path.
  int accepted_sndbuf = 0;
  // Time source for request stamps and deadline sweeps. Defaults to an
  // internal WallClock; the daemon passes the clock its ProxyServer uses
  // so both layers agree on "now".
  const SimClock* clock = nullptr;
};

class NetServer {
 public:
  // The handler is invoked on worker threads, one call per request. The
  // server counts into `registry` (robodet_net_* series), which must
  // outlive it.
  NetServer(NetServerConfig config, NetHandler handler, MetricsRegistry& registry);
  ~NetServer();  // Stops hard if still running.

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds listeners and launches worker threads. False (with `error` set)
  // when a socket or loop could not be created; no threads leak.
  bool Start(std::string* error);

  // The bound port (after Start); with config.port == 0 this is the
  // kernel-assigned port every worker's listener shares.
  uint16_t port() const { return port_; }

  // Graceful shutdown: stop accepting, let in-flight requests finish with
  // Connection: close, force-close whatever remains after drain_timeout.
  // Worker threads exit when their last connection is gone.
  void BeginDrain();

  // Blocks until every worker thread has exited. BeginDrain + Wait is the
  // graceful path; Stop + Wait the immediate one.
  void Wait();

  // Hard stop: abandon open connections (kernel RSTs them on close).
  void Stop();

 private:
  // Keyed by fd; loop-thread only. The only place a worker finds a
  // connection, so an event for an fd closed earlier in the same batch
  // finds nothing.
  // A connection and the epoll interest its fd is registered with, so an
  // unchanged interest costs no epoll_ctl.
  struct ConnEntry {
    std::unique_ptr<NetConnection> conn;
    uint32_t registered_events = 0;
  };
  using ConnMap = std::unordered_map<int, ConnEntry>;

  struct Worker {
    EventLoop loop;
    ListenSocket listener;  // fd is reset when the drain starts.
    std::thread thread;
    ConnMap conns;
  };

  void RunWorker(Worker* worker);
  void HandleAccept(Worker* worker);
  void AdmitConnection(Worker* worker, AcceptedSocket accepted);
  void HandleConnEvent(Worker* worker, int fd, uint32_t events);
  void SweepDeadlines(Worker* worker, TimeMs now);
  // Destroys every connection for which `close(entry)` returns true.
  template <typename Pred>
  void DestroyIf(Worker* worker, Pred close);
  ConnMap::iterator DestroyConn(Worker* worker, ConnMap::iterator it);
  // Re-registers the connection's interest if it changed.
  void UpdateInterest(Worker* worker, ConnEntry& entry);

  NetServerConfig config_;
  NetHandler handler_;
  // Request/byte counters shared by every connection on every worker.
  NetStatsSink sink_;
  size_t per_worker_cap_ = 1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};

  // Connection-level series, bound at construction.
  Counter* m_accepted_;
  Counter* m_shed_rejected_;
  Counter* m_shed_evicted_;
  Counter* m_timeout_read_;
  Counter* m_timeout_idle_;
  Counter* m_timeout_write_;
  Gauge* m_open_;  // Currently open connections, all workers.

  WallClock own_clock_;
  const SimClock* clock_ = nullptr;  // config_.clock or &own_clock_.
};

}  // namespace robodet

#endif  // ROBODET_SRC_NET_SERVER_H_
