// The paper's beacon key table: per client IP, the set of <page, k> tuples
// issued with instrumented pages (§2.1 step 1). A beacon image request is
// a mouse-activity proof iff its k matches a live entry for that IP;
// matching consumes the entry, which is what defeats replay.
//
// The table is lock-striped into shards keyed by client-IP hash so that
// worker threads serving different clients do not contend: every per-IP
// operation takes exactly one shard mutex. The entry count is an atomic;
// cross-shard sweeps (ExpireOld) lock one shard at a time.
#ifndef ROBODET_SRC_PROXY_KEY_TABLE_H_
#define ROBODET_SRC_PROXY_KEY_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/http/request.h"
#include "src/obs/metrics.h"
#include "src/util/clock.h"

namespace robodet {

class KeyTable {
 public:
  // Mutation observer, used by the persistence layer to journal key
  // lifecycle events. Callbacks fire outside shard locks, on the thread
  // that performed the mutation.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void OnKeyIssued(IpAddress ip, const std::string& page_path, const std::string& key,
                             TimeMs issued_at) = 0;
    // Fired only for successful matches (the entry left the table).
    virtual void OnKeyConsumed(IpAddress ip, const std::string& key) = 0;
  };

  // A table entry exported for serialization.
  struct ExportedEntry {
    uint32_t ip = 0;
    std::string page_path;
    std::string key;
    TimeMs issued_at = 0;
  };

  struct Config {
    // Lock stripes. More shards = less contention; must be ≥ 1.
    size_t num_shards = 16;
  };

  explicit KeyTable(Config config);

  // Records <page, k> for `ip`. Oldest entries fall off first when the
  // per-IP bound is hit; entries for this IP that have already expired are
  // reaped in passing (keeps per-IP state bounded without global sweeps).
  void Record(IpAddress ip, const std::string& page_path, const std::string& key, TimeMs now);

  // Checks and consumes a key for `ip`. True iff the key was live (issued,
  // unexpired, not yet used).
  bool MatchAndConsume(IpAddress ip, const std::string& key, TimeMs now);

  // Drops all expired entries (called opportunistically). Returns how many
  // were reaped, so callers can account the sweep.
  size_t ExpireOld(TimeMs now);

  // Incremental variant: sweeps a single shard (round-robin across calls).
  // O(table/num_shards) worst case, suitable for a per-request cadence.
  size_t ExpireOldIncremental(TimeMs now);

  // Counts into `registry` under robodet_key_table_*; call once at wiring
  // time. An unbound table counts nothing.
  void BindMetrics(MetricsRegistry& registry);

  // Not thread-safe; wire before serving. Pass nullptr to detach.
  void set_observer(Observer* observer) { observer_ = observer; }

  size_t num_shards() const { return shards_.size(); }

  // Copies one shard's entries (sorted by ip, then issued_at, then key, so
  // the export is deterministic regardless of hash-map iteration order).
  // Takes only that shard's lock.
  std::vector<ExportedEntry> ExportShard(size_t shard_index);

  // Recovery-only: Record without the observer or counters (the entry was
  // counted in a previous life). The same expiry, per-IP eviction and
  // total bound apply, so entries restored in the order they were issued
  // leave the table as the issues left it. An entry that the IP already
  // holds with the same page, key and time is not added again: an appended
  // record can repeat an issue that a checkpoint already compacted.
  void RestoreEntry(IpAddress ip, std::string_view page_path, std::string_view key,
                    TimeMs issued_at);

  // Recovery-only: MatchAndConsume's removal without the observer or
  // counters.
  void RestoreConsume(IpAddress ip, std::string_view key);

  // Drops every entry without counters or observer (simulated crash).
  void Clear();

  size_t total_entries() const { return total_entries_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    std::string page_path;
    std::string key;
    TimeMs issued_at = 0;
  };

  // One IP's entries, oldest first: a ring over a vector that never holds
  // more slots than the per-IP bound, so a client with one key pays for
  // one entry.
  class EntryFifo {
   public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    // The i-th oldest entry.
    Entry& operator[](size_t i) { return slots_[(head_ + i) % slots_.size()]; }
    const Entry& operator[](size_t i) const { return slots_[(head_ + i) % slots_.size()]; }
    void pop_front();
    void push_back(Entry entry);
    // Removes the i-th oldest entry, keeping the others in order.
    void erase(size_t i);

   private:
    std::vector<Entry> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  struct Shard {
    std::mutex mu;
    // Guarded by mu.
    std::unordered_map<uint32_t, EntryFifo> by_ip;
  };

  Shard& ShardFor(IpAddress ip);
  // Record's bounds and insert, counting expiries and evictions only when
  // `counted`; a restored entry that the IP already holds is skipped.
  // False when the entry was not added.
  bool Add(IpAddress ip, std::string_view page_path, std::string_view key, TimeMs now,
           bool counted);
  // Removes the oldest entry of `key` for `ip`; false when there is none.
  // `*issued_at` gets the removed entry's time.
  bool Remove(IpAddress ip, std::string_view key, TimeMs* issued_at);
  // Reaps expired entries in one shard, counting nothing; caller must NOT
  // hold shard.mu.
  size_t ExpireShard(Shard& shard, TimeMs now);
  // Reaps expired entries in every shard, counting nothing.
  size_t ExpireAll(TimeMs now);
  void UpdateEntriesGauge();

  struct Metrics {
    Counter* issued = nullptr;
    Counter* matched = nullptr;
    Counter* mismatched = nullptr;
    Counter* expired = nullptr;
    Counter* evicted = nullptr;
    Gauge* entries = nullptr;
  };

  Metrics metrics_;
  Observer* observer_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> total_entries_{0};
  std::atomic<size_t> sweep_cursor_{0};
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_KEY_TABLE_H_
