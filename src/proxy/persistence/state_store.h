// Crash-safe persistence for the proxy's detection state (§2's key table
// and the session table). A StateStore keeps one file, state.bin, of
// CRC-framed records (format.h):
//
//   - Every key issue/consume and every session mutation appends one
//     record, flushed immediately.
//   - A checkpoint rewrites the file as one record per live key and
//     session: it writes them to state.bin.tmp one table shard at a time
//     (holding one table lock stripe at a time), renames the file over
//     state.bin and keeps appending to it. It holds the store's own mutex
//     throughout, so appends wait for it. Recover() and the append
//     triggers below run one; Checkpoint() is the explicit entry that
//     tests use to compact at a chosen moment.
//   - Recover() streams the file into the live tables one record at a
//     time and checkpoints, so a process that crashes during recovery
//     still restarts from a whole file.
// So beside the live tables, the store holds one record.
//
// Replay is idempotent (session updates overwrite scalars and append
// suffixes guarded by run marks; a key issue the table already holds
// exactly is not added twice), which is what makes a checkpoint taken
// concurrently with serving safe: a mutation that lands in both the
// compacted records and an appended one applies once.
//
// All on-disk input is treated as hostile; see format.h for the limits and
// salvage rules. A corrupt or missing file degrades to a cold start —
// never a crash — with recovery_ metrics recording the outcome.
#ifndef ROBODET_SRC_PROXY_PERSISTENCE_STATE_STORE_H_
#define ROBODET_SRC_PROXY_PERSISTENCE_STATE_STORE_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/proxy/key_table.h"
#include "src/proxy/persistence/format.h"
#include "src/proxy/session_table.h"
#include "src/util/binio.h"

namespace robodet {

struct PersistenceConfig {
  // Directory for state.bin; empty disables persistence.
  std::string state_dir;
  // Records appended between automatic checkpoints. 64 MB appended also
  // triggers one, whichever fires first; with 0, only that size trigger
  // compacts.
  uint64_t snapshot_interval_records = 8192;

  bool enabled() const { return !state_dir.empty(); }
};

// What recovery found and salvaged; mirrored into recovery_ metrics.
struct RecoveryReport {
  bool attempted = false;
  // True when nothing usable was on disk (first boot, or no valid header).
  bool cold_start = true;
  size_t key_entries_restored = 0;
  size_t sessions_restored = 0;
  // What the walk of state.bin applied and dropped (JournalReader).
  size_t journal_records_applied = 0;
  size_t journal_records_dropped = 0;
  size_t journal_bytes_dropped = 0;
};

class StateStore : public KeyTable::Observer {
 public:
  StateStore(PersistenceConfig config, KeyTable* keys, SessionTable* sessions);
  ~StateStore() override;

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  // Counts journal/recovery activity into `registry` under
  // robodet_persistence_* and robodet_recovery_*, and times each journal
  // append and checkpoint (robodet_journal_append_duration_us,
  // robodet_checkpoint_duration_us); call before Recover().
  // An unbound store counts nothing.
  void BindMetrics(MetricsRegistry& registry);

  // Loads whatever state the directory holds into the tables, which must
  // be empty, and checkpoints. Call once before serving (and after a
  // simulated crash). The file holds no clock, so `now` is not read; it
  // stays for the callers that pass the proxy's clock.
  RecoveryReport Recover(TimeMs now);

  // Rewrites state.bin as the live tables' records. Safe concurrently
  // with serving (see header comment). False on I/O failure (appends
  // continue on the old file). Test seam: serving code relies on the
  // automatic triggers.
  bool Checkpoint();

  // Simulated crash: abandon the file handle without checkpointing.
  // On-disk state stays exactly as the last flushed record left it.
  void OnCrash();

  // KeyTable::Observer — journals key lifecycle events.
  void OnKeyIssued(IpAddress ip, const std::string& page_path, const std::string& key,
                   TimeMs issued_at) override;
  void OnKeyConsumed(IpAddress ip, const std::string& key) override;

  // Journals the session's current state; call after each mutation.
  // Appends only what changed since the previous call for this session.
  void OnSessionUpdated(const SessionState& session);
  // Journals the close so replay does not resurrect the session.
  void OnSessionClosed(const SessionState& session);

  const RecoveryReport& last_recovery() const { return recovery_; }

  std::string state_path() const;

 private:
  struct StoreMetrics {
    Counter* journal_records = nullptr;
    Counter* journal_write_failures = nullptr;
    Counter* checkpoints = nullptr;
    Counter* checkpoint_failures = nullptr;
    Counter* recovery_cold_starts = nullptr;
    Counter* recovery_warm_starts = nullptr;
    Counter* recovery_key_entries = nullptr;
    Counter* recovery_sessions = nullptr;
    Counter* recovery_records_applied = nullptr;
    Counter* recovery_records_dropped = nullptr;
    Counter* recovery_bytes_dropped = nullptr;
    HistogramMetric* journal_append_us = nullptr;
    HistogramMetric* checkpoint_us = nullptr;
  };

  bool CheckpointLocked();
  // Encodes one record into record_ through `encode` and appends it.
  template <typename Encode>
  void AppendLocked(Encode encode);

  PersistenceConfig config_;
  KeyTable* keys_;
  SessionTable* sessions_;
  StoreMetrics metrics_;
  RecoveryReport recovery_;

  mutable std::mutex mu_;
  // All below guarded by mu_.
  // state.bin, open for append.
  std::ofstream journal_;
  bool journal_open_ = false;
  // What was appended since the last checkpoint attempt; the triggers
  // count only these, not the compacted records.
  uint64_t records_since_checkpoint_ = 0;
  size_t journal_bytes_ = 0;
  // Per session, how much of each run state.bin holds.
  std::unordered_map<uint64_t, persistence::RunMarks> marks_;
  // Every record, appended or compacted, is encoded here, reusing its
  // storage.
  ByteWriter record_;
};

// A live session's persisted fields, borrowed for the encoders: valid
// until the session is next mutated.
persistence::SessionFields FieldsOfLive(const SessionState& s);

// Read-only validation of a state directory, for tools/robodet_statedump.
// Never mutates files.
struct InspectionResult {
  bool present = false;
  bool valid = false;  // header parsed
  // Strictly clean: present, valid, nothing dropped, no torn tail.
  bool clean = false;
  // Intact records, by type, and what the walk dropped.
  size_t key_issues = 0;
  size_t key_consumes = 0;
  size_t session_updates = 0;
  size_t session_closes = 0;
  size_t records_dropped = 0;
  size_t bytes_dropped = 0;

  size_t records() const { return key_issues + key_consumes + session_updates + session_closes; }
};

InspectionResult InspectState(const std::string& state_dir);

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_PERSISTENCE_STATE_STORE_H_
