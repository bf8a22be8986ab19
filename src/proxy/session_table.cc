#include "src/proxy/session_table.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/util/hash.h"

namespace robodet {
namespace {

// Deterministic session identity: a pure function of the session key and
// the session's own start time. Two runs that touch the same key at the
// same simulated instant mint the same id regardless of global interleaving
// — the invariant the parallel experiment driver relies on. Forced nonzero
// so 0 can keep meaning "no session".
uint64_t SessionIdFor(const SessionKey& key, TimeMs start) {
  const uint64_t id = Mix64(HashCombine(SessionKeyHash{}(key), static_cast<uint64_t>(start)));
  return id == 0 ? 1 : id;
}

}  // namespace

SessionTable::SessionTable(Config config) : config_(config) {
  config_.num_shards = std::max<size_t>(1, config_.num_shards);
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void SessionTable::BindMetrics(MetricsRegistry& registry) {
  metrics_.opened = registry.FindOrCreateCounter("robodet_sessions_opened_total");
  metrics_.closed_split =
      registry.FindOrCreateCounter("robodet_sessions_closed_total", {{"reason", "split"}});
  metrics_.closed_idle =
      registry.FindOrCreateCounter("robodet_sessions_closed_total", {{"reason", "idle"}});
  metrics_.closed_evicted =
      registry.FindOrCreateCounter("robodet_sessions_closed_total", {{"reason", "evicted"}});
  metrics_.closed_shutdown =
      registry.FindOrCreateCounter("robodet_sessions_closed_total", {{"reason", "shutdown"}});
  metrics_.active = registry.FindOrCreateGauge("robodet_sessions_active");
}

SessionTable::Shard& SessionTable::ShardFor(const SessionKey& key) {
  return *shards_[Mix64(key.ip.value()) % shards_.size()];
}

void SessionTable::UpdateActiveGauge() {
  if (metrics_.active != nullptr) {
    metrics_.active->Set(static_cast<int64_t>(active_count()));
  }
}

void SessionTable::FinishClose(std::unique_ptr<SessionState> closed, Counter* reason) {
  active_.fetch_sub(1, std::memory_order_relaxed);
  IncIfBound(reason);
  UpdateActiveGauge();
  if (close_observer_) {
    close_observer_(*closed);
  }
  if (on_closed_) {
    on_closed_(std::move(closed));
  }
}

SessionState* SessionTable::Touch(const SessionKey& key, TimeMs now) {
  Shard& shard = ShardFor(key);
  std::unique_ptr<SessionState> split;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.sessions.find(key);
    if (it != shard.sessions.end()) {
      SessionState* session = it->get();
      if (now - session->last_request_time() <= config_.idle_timeout) {
        return session;
      }
      // Idle too long: close the old session and fall through to create a
      // fresh one for the same key.
      split = std::move(shard.sessions.extract(it).value());
    }
  }
  if (split != nullptr) {
    FinishClose(std::move(split), metrics_.closed_split);
  }
  if (active_count() >= config_.max_active_sessions) {
    EvictStalest();
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.sessions.find(key);
    if (it != shard.sessions.end()) {
      // Another worker created it between our two critical sections.
      return it->get();
    }
    SessionState* raw =
        shard.sessions.insert(std::make_unique<SessionState>(SessionIdFor(key, now), key, now))
            .first->get();
    active_.fetch_add(1, std::memory_order_relaxed);
    IncIfBound(metrics_.opened);
    UpdateActiveGauge();
    return raw;
  }
}

size_t SessionTable::DrainShard(Shard& shard, TimeMs now, bool idle_only, Counter* reason) {
  std::vector<std::unique_ptr<SessionState>> drained;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
      if (!idle_only || now - (*it)->last_request_time() > config_.idle_timeout) {
        auto next = std::next(it);
        drained.push_back(std::move(shard.sessions.extract(it).value()));
        it = next;
      } else {
        ++it;
      }
    }
  }
  // Callbacks run outside the lock: the callback must not observe a
  // mutating map, and it may re-enter the table.
  for (auto& session : drained) {
    FinishClose(std::move(session), reason);
  }
  return drained.size();
}

size_t SessionTable::CloseIdleIncremental(TimeMs now) {
  const size_t idx = sweep_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  return DrainShard(*shards_[idx], now, /*idle_only=*/true, metrics_.closed_idle);
}

void SessionTable::CloseAll() {
  for (auto& shard : shards_) {
    DrainShard(*shard, /*now=*/0, /*idle_only=*/false, metrics_.closed_shutdown);
  }
}

void SessionTable::ForEachSessionInShard(size_t shard_index,
                                         const std::function<void(const SessionState&)>& fn) {
  if (shard_index >= shards_.size()) {
    return;
  }
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<const SessionState*> ordered;
  ordered.reserve(shard.sessions.size());
  for (const auto& session : shard.sessions) {
    ordered.push_back(session.get());
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const SessionState* a, const SessionState* b) { return a->id() < b->id(); });
  for (const SessionState* session : ordered) {
    fn(*session);
  }
}

void SessionTable::Restore(std::unique_ptr<SessionState> session) {
  Shard& shard = ShardFor(session->key());
  bool replaced = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.sessions.find(session->key());
    replaced = it != shard.sessions.end();
    if (replaced) {
      shard.sessions.erase(it);
    }
    shard.sessions.insert(std::move(session));
  }
  if (!replaced) {
    active_.fetch_add(1, std::memory_order_relaxed);
  }
  UpdateActiveGauge();
}

void SessionTable::DropAll() {
  size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    dropped += shard->sessions.size();
    shard->sessions.clear();
  }
  active_.fetch_sub(dropped, std::memory_order_relaxed);
  UpdateActiveGauge();
}

void SessionTable::EvictStalest() {
  // Phase 1: find the globally stalest session, locking one shard at a time.
  // Ties go to the lowest id, so the victim does not depend on the order a
  // shard's container yields its sessions.
  bool found = false;
  TimeMs stalest_time = 0;
  uint64_t stalest_id = 0;
  size_t stalest_shard = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    for (const auto& session : shards_[s]->sessions) {
      const TimeMs t = session->last_request_time();
      if (!found || t < stalest_time || (t == stalest_time && session->id() < stalest_id)) {
        found = true;
        stalest_time = t;
        stalest_id = session->id();
        stalest_shard = s;
      }
    }
  }
  if (!found) {
    return;
  }
  // Phase 2: re-acquire and close it if still present (a racing worker may
  // have touched or closed it meanwhile; both outcomes are acceptable).
  std::unique_ptr<SessionState> evicted;
  {
    Shard& shard = *shards_[stalest_shard];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = std::find_if(shard.sessions.begin(), shard.sessions.end(),
                           [stalest_id](const auto& s) { return s->id() == stalest_id; });
    if (it != shard.sessions.end()) {
      evicted = std::move(shard.sessions.extract(it).value());
    }
  }
  if (evicted != nullptr) {
    FinishClose(std::move(evicted), metrics_.closed_evicted);
  }
}

}  // namespace robodet
