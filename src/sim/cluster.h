// Multi-node proxy cluster. CoDeeN ran the detectors on 400+ PlanetLab
// nodes with *per-node* key and session tables: a beacon key issued by
// node A is unknown to node B. Clients normally configure one proxy and
// stick to it, so this was fine in practice — but clients that bounce
// across nodes (load balancing, failover) fragment their sessions and can
// even trip the wrong-key signal with a key that is perfectly genuine on
// another node. ProxyCluster models exactly that, and the
// ablation_cluster bench quantifies how detection degrades with node
// switching.
#ifndef ROBODET_SRC_SIM_CLUSTER_H_
#define ROBODET_SRC_SIM_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/proxy/proxy_server.h"
#include "src/sim/fault_injector.h"
#include "src/sim/gateway.h"

namespace robodet {

class ProxyCluster {
 public:
  struct Config {
    size_t nodes = 4;
    // Per-request probability that a client lands on a random node instead
    // of its home node. 0 = perfectly sticky (CoDeeN's usual case).
    double switch_prob = 0.0;
    // Share one beacon key table across all nodes: keys issued anywhere
    // validate anywhere. Fixes the wrong-key fragmentation that node
    // switching causes, at the cost of a shared (network) table.
    bool share_key_table = false;
    // Seeded node crash/restart schedule. A crashed node loses its
    // in-memory tables (recovering from disk when the node's ProxyConfig
    // has persistence wired), stays unroutable for restart_delay, then
    // rejoins. Disabled by default.
    CrashPlan crashes;
    // How far ahead the crash schedule is materialized; crashes past the
    // horizon never fire.
    TimeMs crash_horizon = 30 * kDay;
  };

  ProxyCluster(Config config, const ProxyConfig& proxy_config, SimClock* clock,
               ProxyServer::OriginHandler origin, uint64_t seed);

  size_t size() const { return nodes_.size(); }
  ProxyServer& node(size_t i) { return *nodes_[i]; }

  // Routes a request: the client's home node by rendezvous (highest-
  // random-weight) hashing over the currently *live* nodes, or a random
  // live node with switch_prob. A crashed node is never returned: its
  // clients fail over to the next-highest-scoring live node — one
  // consistent target per client — and return home when it restarts.
  // Routing a request first advances the crash schedule to the cluster
  // clock, so crash/restart events apply in timestamp order.
  ProxyServer* Route(const ClientIdentity& id);

  // Applies every crash event with timestamp <= now and expires completed
  // restart windows. Route calls this; tests and benches can call it
  // directly to force a crash boundary.
  void UpdateLiveness(TimeMs now);

  // False while `node` is inside a crash window at time `now`.
  bool IsLive(size_t node, TimeMs now) const;

  // Crash events applied so far (nodes restarted).
  uint64_t crashes_applied() const { return crashes_applied_; }

  // Merges a client's per-node session signals into one cluster-wide view:
  // each first-detection index is the minimum nonzero across nodes (the
  // earliest any node saw the signal; indices are per-node request counts,
  // so treat them as approximate).
  SessionSignals CombinedSignalsFor(IpAddress ip, const std::string& user_agent, TimeMs now);

 private:
  // Index of the highest-scoring live node for `ip` (all nodes when none
  // are live, so Route never returns null).
  size_t RendezvousPick(uint32_t ip, TimeMs now) const;

  Config config_;
  SimClock* clock_ = nullptr;  // Not owned.
  std::vector<std::unique_ptr<ProxyServer>> nodes_;
  std::unique_ptr<KeyTable> shared_keys_;
  Rng rng_;
  // Crash schedule, sorted by time; next_crash_ is the replay cursor.
  std::vector<CrashEvent> schedule_;
  size_t next_crash_ = 0;
  // Per node: end of the current crash window (node is down while
  // now < down_until_[i]).
  std::vector<TimeMs> down_until_;
  uint64_t crashes_applied_ = 0;
};

}  // namespace robodet

#endif  // ROBODET_SRC_SIM_CLUSTER_H_
