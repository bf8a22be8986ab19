#include "src/proxy/session_table.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <string_view>
#include <unordered_set>
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
uint64_t SessionIdFor(uint64_t key_hash, TimeMs start) {
  const uint64_t id = Mix64(HashCombine(key_hash, static_cast<uint64_t>(start)));
  return id == 0 ? 1 : id;
}

// A User-Agent being looked up: its text and Fnv1a.
struct AgentProbe {
  std::string_view text;
  uint64_t hash;
};

}  // namespace

// Each session is chained through its own chain_next_ into one of a
// power-of-two number of buckets, so it needs no node of its own. The
// buckets stay at most one session per bucket on average.
struct SessionTable::Shard {
  struct AgentHash {
    using is_transparent = void;
    size_t operator()(const SharedUserAgent& a) const noexcept { return a.hash(); }
    size_t operator()(const AgentProbe& p) const noexcept { return p.hash; }
  };
  struct AgentEq {
    using is_transparent = void;
    static std::string_view Text(const SharedUserAgent& a) { return a.text(); }
    static std::string_view Text(const AgentProbe& p) { return p.text; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      return Text(a) == Text(b);
    }
  };

  using AgentSet = std::unordered_set<SharedUserAgent, AgentHash, AgentEq>;

  ~Shard() { Clear(); }

  // Deletes every session, with no callbacks.
  void Clear() {
    for (SessionState* head : buckets) {
      while (head != nullptr) {
        delete std::exchange(head, head->chain_next_);
      }
    }
    buckets = std::vector<SessionState*>();
    size = 0;
    agents = AgentSet();
  }

  static uint64_t HashOf(const SessionState& s) {
    return SessionKeyHashOf(s.ip_, s.user_agent_.hash());
  }

  // Fibonacci hashing: the top bits of the product mix every input bit.
  SessionState*& Bucket(uint64_t hash) {
    return buckets[(hash * 0x9E3779B97F4A7C15ULL) >> (64 - std::countr_zero(buckets.size()))];
  }

  SessionState* Find(SessionKeyView key, uint64_t hash) {
    if (size == 0) {
      return nullptr;
    }
    for (SessionState* s = Bucket(hash); s != nullptr; s = s->chain_next_) {
      if (s->ip_ == key.ip && s->user_agent_.text() == key.user_agent) {
        return s;
      }
    }
    return nullptr;
  }

  // Makes a session for `key` and links it in. Its User-Agent is the
  // shard's copy, made now if no session here carries that agent yet.
  SessionState* Create(uint64_t id, SessionKeyView key, uint64_t agent_hash, TimeMs start) {
    auto it = agents.find(AgentProbe{key.user_agent, agent_hash});
    if (it == agents.end()) {
      it = agents.insert(SharedUserAgent(key.user_agent, agent_hash)).first;
    }
    ++it->block_->table_uses;
    auto* session = new SessionState(id, key.ip, *it, start);
    if (size >= buckets.size()) {
      Rehash(std::max<size_t>(16, 2 * buckets.size()));
    }
    session->chain_next_ = std::exchange(Bucket(SessionKeyHashOf(key.ip, agent_hash)), session);
    ++size;
    return session;
  }

  // Unlinks a session of this shard; the caller owns it from here.
  std::unique_ptr<SessionState> Unlink(SessionState* session) {
    SessionState** link = &Bucket(HashOf(*session));
    while (*link != session) {
      link = &(*link)->chain_next_;
    }
    *link = session->chain_next_;
    session->chain_next_ = nullptr;
    SharedUserAgent::Block* agent = session->user_agent_.block_;
    if (--agent->table_uses == 0) {
      agents.erase(agents.find(AgentProbe{session->user_agent_.text(), agent->hash}));
    }
    if (--size == 0) {
      // An emptied shard gives its arrays back.
      buckets = std::vector<SessionState*>();
      agents = AgentSet();
    }
    return std::unique_ptr<SessionState>(session);
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (SessionState* head : buckets) {
      for (SessionState* s = head; s != nullptr; s = s->chain_next_) {
        fn(s);
      }
    }
  }

  void Rehash(size_t bucket_count) {
    std::vector<SessionState*> old = std::exchange(buckets, std::vector<SessionState*>(bucket_count));
    for (SessionState* head : old) {
      while (head != nullptr) {
        SessionState* s = std::exchange(head, head->chain_next_);
        s->chain_next_ = std::exchange(Bucket(HashOf(*s)), s);
      }
    }
  }

  std::mutex mu;
  // Guarded by mu.
  std::vector<SessionState*> buckets;
  size_t size = 0;
  // One copy per User-Agent that a session here carries.
  AgentSet agents;
};

SessionTable::SessionTable(Config config) : config_(config) {
  config_.num_shards = std::max<size_t>(1, config_.num_shards);
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SessionTable::~SessionTable() = default;

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

SessionTable::Shard& SessionTable::ShardFor(IpAddress ip) {
  return *shards_[Mix64(ip.value()) % shards_.size()];
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

SessionState* SessionTable::Touch(SessionKeyView key, TimeMs now) {
  const uint64_t agent_hash = Fnv1a(key.user_agent);
  const uint64_t hash = SessionKeyHashOf(key.ip, agent_hash);
  Shard& shard = ShardFor(key.ip);
  std::unique_ptr<SessionState> split;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (SessionState* session = shard.Find(key, hash); session != nullptr) {
      if (now - session->last_request_time() <= config_.idle_timeout) {
        return session;
      }
      // Idle too long: close the old session and fall through to create a
      // fresh one for the same key.
      split = shard.Unlink(session);
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
    if (SessionState* session = shard.Find(key, hash); session != nullptr) {
      // Another worker created it between our two critical sections.
      return session;
    }
    SessionState* session = shard.Create(SessionIdFor(hash, now), key, agent_hash, now);
    active_.fetch_add(1, std::memory_order_relaxed);
    IncIfBound(metrics_.opened);
    UpdateActiveGauge();
    return session;
  }
}

size_t SessionTable::DrainShard(Shard& shard, TimeMs now, bool idle_only, Counter* reason) {
  std::vector<std::unique_ptr<SessionState>> drained;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<SessionState*> matched;
    shard.ForEach([&](SessionState* s) {
      if (!idle_only || now - s->last_request_time() > config_.idle_timeout) {
        matched.push_back(s);
      }
    });
    drained.reserve(matched.size());
    for (SessionState* s : matched) {
      drained.push_back(shard.Unlink(s));
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
  ordered.reserve(shard.size);
  shard.ForEach([&](const SessionState* s) { ordered.push_back(s); });
  std::sort(ordered.begin(), ordered.end(),
            [](const SessionState* a, const SessionState* b) { return a->id() < b->id(); });
  for (const SessionState* session : ordered) {
    fn(*session);
  }
}

SessionState* SessionTable::Restore(uint64_t id, SessionKeyView key, TimeMs first_request,
                                    std::optional<uint64_t>* replaced) {
  const uint64_t agent_hash = Fnv1a(key.user_agent);
  Shard& shard = ShardFor(key.ip);
  replaced->reset();
  SessionState* session = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (SessionState* old = shard.Find(key, SessionKeyHashOf(key.ip, agent_hash)); old != nullptr) {
      *replaced = old->id();
      shard.Unlink(old);
    }
    session = shard.Create(id, key, agent_hash, first_request);
  }
  if (!replaced->has_value()) {
    active_.fetch_add(1, std::memory_order_relaxed);
  }
  UpdateActiveGauge();
  return session;
}

void SessionTable::RemoveRestored(SessionState* session) {
  Shard& shard = ShardFor(session->key().ip);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.Unlink(session);
  }
  active_.fetch_sub(1, std::memory_order_relaxed);
  UpdateActiveGauge();
}

void SessionTable::DropAll() {
  size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    dropped += shard->size;
    shard->Clear();
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
    shards_[s]->ForEach([&](const SessionState* session) {
      const TimeMs t = session->last_request_time();
      if (!found || t < stalest_time || (t == stalest_time && session->id() < stalest_id)) {
        found = true;
        stalest_time = t;
        stalest_id = session->id();
        stalest_shard = s;
      }
    });
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
    SessionState* victim = nullptr;
    shard.ForEach([&](SessionState* s) {
      if (s->id() == stalest_id) {
        victim = s;
      }
    });
    if (victim != nullptr) {
      evicted = shard.Unlink(victim);
    }
  }
  if (evicted != nullptr) {
    FinishClose(std::move(evicted), metrics_.closed_evicted);
  }
}

}  // namespace robodet
