#include "src/sim/cluster.h"

#include "src/util/hash.h"

namespace robodet {

ProxyCluster::ProxyCluster(Config config, const ProxyConfig& proxy_config, SimClock* clock,
                           ProxyServer::OriginHandler origin, uint64_t seed)
    : config_(config), rng_(seed) {
  const size_t n = config_.nodes == 0 ? 1 : config_.nodes;
  if (config_.share_key_table) {
    shared_keys_ = std::make_unique<KeyTable>(proxy_config.keys);
  }
  nodes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Every node gets its own PRNG stream and therefore its own token
    // secrets would differ — but probe validation must work on whichever
    // node receives the fetch, and CoDeeN nodes shared the deployment
    // configuration. Keep the shared secret from proxy_config; the
    // *tables* (keys, sessions) are what stay per-node.
    nodes_.push_back(std::make_unique<ProxyServer>(proxy_config, clock, origin,
                                                   seed ^ (0x9e3779b9ULL * (i + 1))));
    if (shared_keys_ != nullptr) {
      nodes_.back()->UseSharedKeyTable(shared_keys_.get());
    }
  }
}

size_t ProxyCluster::RendezvousPick(uint32_t ip) const {
  // Highest-random-weight hashing: every client ranks the nodes by a
  // per-(client, node) score and takes the best one.
  size_t best = 0;
  uint64_t best_score = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const uint64_t score = Mix64(HashCombine(ip, 0xc1e5 * (i + 1)));
    if (i == 0 || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

ProxyServer* ProxyCluster::Route(const ClientIdentity& id) {
  if (nodes_.size() == 1) {
    return nodes_[0].get();
  }
  if (config_.switch_prob > 0.0 && rng_.Bernoulli(config_.switch_prob)) {
    return nodes_[rng_.UniformU64(nodes_.size())].get();
  }
  return nodes_[RendezvousPick(id.ip.value())].get();
}

SessionSignals ProxyCluster::CombinedSignalsFor(IpAddress ip, const std::string& user_agent,
                                                TimeMs now) {
  SessionSignals combined;
  auto merge_index = [](int& into, int value) {
    if (value > 0 && (into == 0 || value < into)) {
      into = value;
    }
  };
  for (const auto& node : nodes_) {
    const SessionSignals& s =
        node->sessions().Touch({ip, user_agent}, now)->signals();
    for (const SignalIndex& index : kSignalIndices) {
      merge_index(combined.*index.field, s.*index.field);
    }
    if (combined.ua_echo_agent.empty()) {
      combined.ua_echo_agent = s.ua_echo_agent;
    }
  }
  return combined;
}

}  // namespace robodet
