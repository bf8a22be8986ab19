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
  };

  // Every node runs `proxy_config` as given; its tables live in memory, so
  // the config names no persistence state_dir (the nodes would share it).
  ProxyCluster(Config config, const ProxyConfig& proxy_config, SimClock* clock,
               ProxyServer::OriginHandler origin, uint64_t seed);

  size_t size() const { return nodes_.size(); }
  ProxyServer& node(size_t i) { return *nodes_[i]; }

  // Routes a request: the client's home node by rendezvous (highest-
  // random-weight) hashing, or a random node with switch_prob.
  ProxyServer* Route(const ClientIdentity& id);

  // Merges a client's per-node session signals into one cluster-wide view:
  // each first-detection index is the minimum nonzero across nodes (the
  // earliest any node saw the signal; indices are per-node request counts,
  // so treat them as approximate).
  SessionSignals CombinedSignalsFor(IpAddress ip, const std::string& user_agent, TimeMs now);

 private:
  // Index of the highest-scoring node for `ip`.
  size_t RendezvousPick(uint32_t ip) const;

  Config config_;
  std::vector<std::unique_ptr<ProxyServer>> nodes_;
  std::unique_ptr<KeyTable> shared_keys_;
  Rng rng_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_SIM_CLUSTER_H_
