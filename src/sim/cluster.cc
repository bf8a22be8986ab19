#include "src/sim/cluster.h"

#include "src/util/hash.h"

namespace robodet {

ProxyCluster::ProxyCluster(Config config, const ProxyConfig& proxy_config, SimClock* clock,
                           ProxyServer::OriginHandler origin, uint64_t seed)
    : config_(config), clock_(clock), rng_(seed) {
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
    ProxyConfig node_config = proxy_config;
    if (!node_config.persistence.state_dir.empty()) {
      // Each node persists into its own subdirectory; sharing one journal
      // would interleave unrelated nodes' state.
      node_config.persistence.state_dir += "/node-" + std::to_string(i);
    }
    nodes_.push_back(std::make_unique<ProxyServer>(node_config, clock, origin,
                                                   seed ^ (0x9e3779b9ULL * (i + 1))));
    if (shared_keys_ != nullptr) {
      nodes_.back()->UseSharedKeyTable(shared_keys_.get());
    }
  }
  down_until_.assign(nodes_.size(), 0);
  schedule_ = GenerateCrashSchedule(config_.crashes, nodes_.size(), config_.crash_horizon);
}

void ProxyCluster::UpdateLiveness(TimeMs now) {
  while (next_crash_ < schedule_.size() && schedule_[next_crash_].at <= now) {
    const CrashEvent& ev = schedule_[next_crash_];
    // The node's memory is gone the instant it crashes; recovery (when
    // persistence is wired) happens as part of the restart.
    nodes_[ev.node]->SimulateCrashRestart(ev.at + config_.crashes.restart_delay);
    down_until_[ev.node] = ev.at + config_.crashes.restart_delay;
    ++crashes_applied_;
    ++next_crash_;
  }
}

bool ProxyCluster::IsLive(size_t node, TimeMs now) const {
  return node < down_until_.size() && now >= down_until_[node];
}

size_t ProxyCluster::RendezvousPick(uint32_t ip, TimeMs now) const {
  // Highest-random-weight hashing: every client ranks the nodes by a
  // per-(client, node) score, takes the best live one. A node's crash
  // moves only *its* clients — each to its fixed second choice — and its
  // restart moves exactly those clients back.
  size_t best = 0;
  uint64_t best_score = 0;
  bool found = false;
  for (int live_only = 1; live_only >= 0; --live_only) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (live_only != 0 && !IsLive(i, now)) {
        continue;
      }
      const uint64_t score = Mix64(HashCombine(ip, 0xc1e5 * (i + 1)));
      if (!found || score > best_score) {
        found = true;
        best = i;
        best_score = score;
      }
    }
    if (found) {
      break;  // Second pass (all nodes) only when the whole cluster is down.
    }
  }
  return best;
}

ProxyServer* ProxyCluster::Route(const ClientIdentity& id) {
  const TimeMs now = clock_ != nullptr ? clock_->Now() : 0;
  UpdateLiveness(now);
  if (nodes_.size() == 1) {
    return nodes_[0].get();
  }
  if (config_.switch_prob > 0.0 && rng_.Bernoulli(config_.switch_prob)) {
    // A bouncing client still only lands on live nodes: draw an index, then
    // walk forward to the first live one (degenerate all-down case keeps
    // the raw draw).
    const size_t start = rng_.UniformU64(nodes_.size());
    for (size_t off = 0; off < nodes_.size(); ++off) {
      const size_t idx = (start + off) % nodes_.size();
      if (IsLive(idx, now)) {
        return nodes_[idx].get();
      }
    }
    return nodes_[start].get();
  }
  return nodes_[RendezvousPick(id.ip.value(), now)].get();
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
        node->sessions().Touch(SessionKey{ip, user_agent}, now)->signals();
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
