// Crash-safe persistence for the proxy's detection state (§2's key table
// and the session table). A StateStore pairs a checksummed snapshot file
// with an append-only journal of mutations:
//
//   - A checkpoint serializes the tables one shard at a time (holding one
//     table lock stripe at a time), writing each shard's section to
//     snapshot.bin.tmp as it is encoded and renaming the file over the
//     snapshot at the end, and resets the journal at a new epoch. It holds
//     the store's own mutex throughout, so journal appends wait for it.
//     Recover() and the journal triggers below run one; Checkpoint() is
//     the explicit entry that tests use to compact at a chosen moment.
//   - Between checkpoints, every key issue/consume and every session
//     mutation appends one journal record, flushed immediately.
//   - Recover() streams snapshot + journal into the live tables, one
//     section or record at a time, and checkpoints — so a process that
//     crashes during recovery still starts its journal from a consistent
//     snapshot.
// So beside the live tables, the store holds one section or one record.
//
// Replay is idempotent (session updates overwrite scalars and append
// suffixes guarded by run marks; a key issue the table already holds
// exactly is not added twice), which is what makes a checkpoint taken
// concurrently with serving safe: a mutation that lands in both the
// snapshot and the journal applies once.
//
// All on-disk input is treated as hostile; see format.h for the limits and
// salvage semantics. A fully corrupt state directory degrades to a cold
// start — never a crash — with recovery_ metrics recording the outcome.
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
  // Directory for snapshot.bin + journal.bin; empty disables persistence.
  std::string state_dir;
  // Journal records between automatic checkpoints. A 64 MB journal also
  // triggers one, whichever fires first; with 0, only that size trigger
  // compacts.
  uint64_t snapshot_interval_records = 8192;

  bool enabled() const { return !state_dir.empty(); }
};

// What recovery found and salvaged; mirrored into recovery_ metrics.
struct RecoveryReport {
  bool attempted = false;
  // True when nothing usable was on disk (first boot or corrupt header).
  bool cold_start = true;
  bool snapshot_loaded = false;
  bool journal_replayed = false;
  uint64_t epoch = 0;  // Epoch in effect after the recovery checkpoint.
  size_t key_entries_restored = 0;
  size_t sessions_restored = 0;
  size_t snapshot_sections_dropped = 0;
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
  // simulated crash). `now` is used only to stamp the fresh snapshot.
  RecoveryReport Recover(TimeMs now);

  // Writes a fresh snapshot and resets the journal. Safe concurrently
  // with serving (see header comment). False on I/O failure (journaling
  // continues against the old epoch). Test seam: serving code relies on
  // the automatic triggers.
  bool Checkpoint(TimeMs now);

  // Simulated crash: abandon the journal handle without checkpointing.
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

  std::string snapshot_path() const;
  std::string journal_path() const;

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
    Counter* recovery_sections_dropped = nullptr;
    Counter* recovery_records_applied = nullptr;
    Counter* recovery_records_dropped = nullptr;
    Counter* recovery_bytes_dropped = nullptr;
    HistogramMetric* journal_append_us = nullptr;
    HistogramMetric* checkpoint_us = nullptr;
  };

  bool CheckpointLocked(TimeMs now);
  // Encodes one record into record_ through `encode` and appends it.
  template <typename Encode>
  void AppendLocked(TimeMs now, Encode encode);

  PersistenceConfig config_;
  KeyTable* keys_;
  SessionTable* sessions_;
  StoreMetrics metrics_;
  RecoveryReport recovery_;

  mutable std::mutex mu_;
  // All below guarded by mu_.
  std::ofstream journal_;
  bool journal_open_ = false;
  uint64_t epoch_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  size_t journal_bytes_ = 0;
  TimeMs last_now_ = 0;
  // The largest section of the last snapshot read or written; the next
  // checkpoint's section buffer reserves it.
  size_t section_bytes_ = 0;
  // Per session, how much of each run the journal or the latest snapshot
  // holds.
  std::unordered_map<uint64_t, persistence::RunMarks> marks_;
  // Every record is encoded here, reusing its storage.
  ByteWriter record_;
};

// A live session's persisted fields, borrowed for the encoders: valid
// until the session is next mutated.
persistence::SessionFields FieldsOfLive(const SessionState& s);

// Read-only validation of a state directory, for tools/robodet_statedump.
// Never mutates files.
struct InspectionResult {
  bool snapshot_present = false;
  bool journal_present = false;
  bool snapshot_valid = false;  // header parsed
  bool journal_valid = false;   // header parsed
  bool epoch_match = false;     // journal belongs to this snapshot
  // Strictly clean: nothing dropped, no torn tail, epochs consistent.
  bool clean = true;
  // The snapshot's header, the entries of its intact sections, and how
  // many sections it declares and dropped.
  struct {
    uint64_t epoch = 0;
    TimeMs created_at = 0;
    size_t keys = 0;
    size_t sessions = 0;
    size_t sections_total = 0;
    size_t sections_dropped = 0;
  } snapshot;
  // The journal's epoch, its intact records, and what its walk dropped.
  struct {
    uint64_t epoch = 0;
    size_t records = 0;
    size_t records_dropped = 0;
    size_t bytes_dropped = 0;
  } journal;
};

InspectionResult InspectState(const std::string& state_dir);

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_PERSISTENCE_STATE_STORE_H_
