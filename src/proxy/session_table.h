// Session table keyed by <IP, User-Agent> with idle-timeout splitting: a
// gap longer than the timeout (one hour in the paper) closes the session
// and starts a new one for the same key. Closed sessions are handed to a
// callback rather than stored, so memory stays proportional to *active*
// sessions regardless of experiment length.
//
// Lock-striped: sessions are sharded by client-IP hash, and every Touch
// takes exactly one shard mutex. Session ids are derived from
// hash(session key, first-request time) rather than a shared counter, so
// a session's id is a pure function of its own client's timeline — the
// property that lets the parallel simulation driver produce bit-identical
// records to the serial one. The on_closed callback is always invoked
// outside shard locks.
#ifndef ROBODET_SRC_PROXY_SESSION_TABLE_H_
#define ROBODET_SRC_PROXY_SESSION_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/proxy/session.h"

namespace robodet {

class SessionTable {
 public:
  struct Config {
    TimeMs idle_timeout = kHour;
    // Hard cap on concurrently active sessions; beyond it, the stalest
    // session is force-closed (DoS guard — §4.2 notes memory pressure as a
    // real concern for per-session state). Note for multi-threaded use:
    // eviction can close a session another worker still holds a pointer
    // to, so the cap must comfortably exceed the worker×client fan-out.
    size_t max_active_sessions = 1 << 20;
    // Lock stripes. More shards = less contention; must be ≥ 1.
    size_t num_shards = 16;
  };

  using ClosedCallback = std::function<void(std::unique_ptr<SessionState>)>;
  using CloseObserver = std::function<void(const SessionState&)>;

  explicit SessionTable(Config config);
  ~SessionTable();

  // Not thread-safe; wire before serving.
  void set_on_closed(ClosedCallback cb) { on_closed_ = std::move(cb); }

  // Observer fired (outside shard locks) just before on_closed_ whenever a
  // session leaves the table, but not on DropAll; the proxy journals the
  // close there, so replay does not resurrect it, and counts the session's
  // verdict. Not thread-safe; wire before serving.
  void set_close_observer(CloseObserver cb) { close_observer_ = std::move(cb); }

  // Finds the active session for `key`, splitting on idle timeout, or
  // creates one. Never returns null; the pointer stays valid until the
  // session is closed. Copies nothing of the key unless it creates a
  // session, and then shares the User-Agent text with the shard's other
  // sessions that carry it.
  SessionState* Touch(SessionKeyView key, TimeMs now);

  // Closes the sessions idle at `now` in one shard (round-robin across
  // calls; num_shards() calls sweep the whole table). Returns how many
  // sessions were closed.
  size_t CloseIdleIncremental(TimeMs now);

  // Closes everything unconditionally.
  void CloseAll();

  size_t active_count() const { return active_.load(std::memory_order_relaxed); }

  // Counts open/close/evict activity into `registry` under
  // robodet_sessions_*; closes are labeled by reason (split, idle,
  // evicted, shutdown). Call once at wiring time. An unbound table counts
  // nothing.
  void BindMetrics(MetricsRegistry& registry);

  size_t num_shards() const { return shards_.size(); }

  // Visits every session in one shard, in id order, under that shard's
  // lock; `fn` must not re-enter the table. Used by the persistence layer to checkpoint one
  // stripe at a time without stalling the others.
  void ForEachSessionInShard(size_t shard_index, const std::function<void(const SessionState&)>& fn);

  // Recovery-only: installs an empty session with the given id, key and
  // start, and returns it for the caller to fill in before serving starts.
  // It replaces any session of the same key, whose id goes to `*replaced`.
  // Does not fire opened counters — the session was counted in a previous
  // life.
  SessionState* Restore(uint64_t id, SessionKeyView key, TimeMs first_request,
                        std::optional<uint64_t>* replaced);

  // Recovery-only: removes a restored session without the close observer,
  // the closed callback or counters (a replayed close was counted in a
  // previous life).
  void RemoveRestored(SessionState* session);

  // Drops every session without callbacks, counters, or records (simulated
  // crash: in-flight state simply vanishes).
  void DropAll();

 private:
  // A shard's sessions and the User-Agent copies they share; defined in
  // the .cc.
  struct Shard;

  struct Metrics {
    Counter* opened = nullptr;
    Counter* closed_split = nullptr;
    Counter* closed_idle = nullptr;
    Counter* closed_evicted = nullptr;
    Counter* closed_shutdown = nullptr;
    Gauge* active = nullptr;
  };

  Shard& ShardFor(IpAddress ip);
  // Scans every shard for the globally stalest session and closes it;
  // among equally stale sessions, the one with the lowest id.
  void EvictStalest();
  // Closes all sessions in one shard matching `stale_before` (or all when
  // stale_before is kNoCutoff); returns how many. Locks internally.
  size_t DrainShard(Shard& shard, TimeMs now, bool idle_only, Counter* reason);
  void FinishClose(std::unique_ptr<SessionState> closed, Counter* reason);
  void UpdateActiveGauge();

  Config config_;
  Metrics metrics_;
  ClosedCallback on_closed_;
  CloseObserver close_observer_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> active_{0};
  std::atomic<size_t> sweep_cursor_{0};
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_SESSION_TABLE_H_
