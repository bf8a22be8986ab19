#include "src/proxy/persistence/state_store.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/binio.h"
#include "src/util/hash.h"

namespace robodet {
namespace {

using persistence::JournalRecord;
using persistence::JournalRecordType;
using persistence::KeyEntryImage;
using persistence::SessionImage;
using persistence::SnapshotContents;

// Size-based checkpoint trigger, beside snapshot_interval_records:
// whichever fires first.
constexpr size_t kMaxJournalBytes = 64u << 20;

// A state file's size, or 0 when it is missing or too large to read.
size_t StateFileSize(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec || size > persistence::kMaxStateFileBytes ? 0 : static_cast<size_t>(size);
}

// Stage histograms observe only what their counter counts (an appended
// record, a written snapshot), so each one's count equals its counter's.
void ObserveUsSince(HistogramMetric* hist, uint64_t t0) {
  if (hist != nullptr) {
    hist->Observe(static_cast<double>(MonotonicNanos() - t0) / 1000.0);
  }
}

// Identity of a key-table entry for idempotent replay: the beacon key is
// random per issue, so (ip, key) is unique in practice. The key is
// borrowed from a decoded image that outlives the replay.
struct KeyIdentity {
  uint32_t ip;
  std::string_view key;
  bool operator==(const KeyIdentity&) const = default;
};

struct KeyIdentityHash {
  size_t operator()(const KeyIdentity& id) const {
    return static_cast<size_t>(HashCombine(id.ip, Fnv1a(id.key)));
  }
};

// The key entries replay leaves live, in the order they entered the
// table: the snapshot's, then each kept journaled issue. Identities are
// counted live as a set: an issue is dropped while its identity is
// counted, and a consume uncounts it and removes its oldest live entry,
// as the key table's own match does. The table does not deduplicate what
// it is given, so it can hold one identity twice (one key recorded twice
// for an IP); each identity keeps its live entries in a list. Both
// operations are O(1).
class KeyReplay {
 public:
  explicit KeyReplay(std::vector<KeyEntryImage>* snapshot_keys) {
    entries_.reserve(snapshot_keys->size());
    index_.reserve(snapshot_keys->size());
    for (KeyEntryImage& k : *snapshot_keys) {
      Append(&k, index_.find(KeyIdentity{k.ip, k.key}));
    }
  }

  // A kept issue takes over `k`'s strings.
  void Issue(KeyEntryImage* k) {
    const auto it = index_.find(KeyIdentity{k->ip, k->key});
    if (it != index_.end() && it->second.counted) {
      return;
    }
    issued_.push_back(std::move(*k));
    Append(&issued_.back(), it);
  }

  void Consume(const KeyEntryImage& k) {
    const auto it = index_.find(KeyIdentity{k.ip, k.key});
    if (it == index_.end() || !it->second.counted) {
      return;
    }
    Live& live = it->second;
    live.counted = false;
    entries_[live.head].image = nullptr;
    live.head = entries_[live.head].next;
    if (live.head == kNone) {
      index_.erase(it);
    }
  }

  // Visits the live entries in table order.
  template <typename Fn>
  void ForEachLive(Fn fn) {
    for (const Entry& e : entries_) {
      if (e.image != nullptr) {
        fn(e.image);
      }
    }
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  struct Entry {
    KeyEntryImage* image;  // Null once consumed.
    uint32_t next;         // The identity's next live entry.
  };
  // One identity's live entries, oldest first, and whether it is counted.
  struct Live {
    uint32_t head;
    uint32_t tail;
    bool counted;
  };
  using Index = std::unordered_map<KeyIdentity, Live, KeyIdentityHash>;

  // `it` is the identity's index entry, or end() for a new identity.
  void Append(KeyEntryImage* k, Index::iterator it) {
    const auto slot = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{k, kNone});
    if (it == index_.end()) {
      index_.emplace(KeyIdentity{k->ip, k->key}, Live{slot, slot, true});
      return;
    }
    entries_[it->second.tail].next = slot;
    it->second.tail = slot;
    it->second.counted = true;
  }

  std::vector<Entry> entries_;
  // Kept journaled issues; a deque, so the identities' views stay valid.
  std::deque<KeyEntryImage> issued_;
  Index index_;
};

// Fills a freshly installed session from its image; the session's own
// bounds apply.
void FillFromImage(SessionImage* img, SessionState* session) {
  session->RestoreScalars(img->last_request, img->request_count, img->instrumented_pages,
                          img->blocked, img->cgi_requests, img->get_requests,
                          img->error_responses);
  session->signals() = std::move(img->signals);
  session->RestoreEvents(img->events);
  if (img->instrumented_page_indices.size() > 64) {
    img->instrumented_page_indices.resize(64);
  }
  session->mutable_instrumented_page_indices() = std::move(img->instrumented_page_indices);
  session->served_links().Restore(img->served_links);
  session->served_embeds().Restore(img->served_embeds);
  session->visited_urls().Restore(img->visited_urls);
}

}  // namespace

persistence::SessionFields FieldsOfLive(const SessionState& s) {
  persistence::SessionFields f;
  f.id = s.id();
  f.ip = s.key().ip.value();
  f.user_agent = s.key().user_agent;
  f.first_request = s.first_request_time();
  f.last_request = s.last_request_time();
  f.signals = &s.signals();
  f.request_count = s.observation().request_count;
  f.instrumented_pages = s.observation().instrumented_pages;
  f.blocked = s.blocked();
  f.cgi_requests = s.cgi_requests();
  f.get_requests = s.get_requests();
  f.error_responses = s.error_responses();
  f.instrumented_page_indices = s.observation().instrumented_page_indices;
  f.events = s.events();
  f.served_links = s.served_links().ordered_hashes();
  f.served_embeds = s.served_embeds().ordered_hashes();
  f.visited_urls = s.visited_urls().ordered_hashes();
  return f;
}

StateStore::StateStore(PersistenceConfig config, KeyTable* keys, SessionTable* sessions)
    : config_(std::move(config)), keys_(keys), sessions_(sessions) {
  if (config_.enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.state_dir, ec);
  }
}

StateStore::~StateStore() {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_open_) {
    journal_.flush();
    journal_.close();
  }
}

std::string StateStore::snapshot_path() const { return config_.state_dir + "/snapshot.bin"; }
std::string StateStore::journal_path() const { return config_.state_dir + "/journal.bin"; }

void StateStore::BindMetrics(MetricsRegistry& registry) {
  metrics_.journal_records =
      registry.FindOrCreateCounter("robodet_persistence_journal_records_total");
  metrics_.journal_write_failures =
      registry.FindOrCreateCounter("robodet_persistence_journal_write_failures_total");
  metrics_.checkpoints = registry.FindOrCreateCounter("robodet_persistence_checkpoints_total");
  metrics_.checkpoint_failures =
      registry.FindOrCreateCounter("robodet_persistence_checkpoint_failures_total");
  // 1us..8.2ms: a journal append is one encode, write and flush.
  metrics_.journal_append_us = registry.FindOrCreateHistogram(
      "robodet_journal_append_duration_us", ExponentialBuckets(1.0, 2.0, 14));
  // 16us..4.2s: a checkpoint encodes and writes the whole state.
  metrics_.checkpoint_us = registry.FindOrCreateHistogram(
      "robodet_checkpoint_duration_us", ExponentialBuckets(16.0, 2.0, 19));
  metrics_.recovery_cold_starts =
      registry.FindOrCreateCounter("robodet_recovery_total", {{"outcome", "cold"}});
  metrics_.recovery_warm_starts =
      registry.FindOrCreateCounter("robodet_recovery_total", {{"outcome", "warm"}});
  metrics_.recovery_key_entries =
      registry.FindOrCreateCounter("robodet_recovery_key_entries_restored_total");
  metrics_.recovery_sessions =
      registry.FindOrCreateCounter("robodet_recovery_sessions_restored_total");
  metrics_.recovery_sections_dropped =
      registry.FindOrCreateCounter("robodet_recovery_snapshot_sections_dropped_total");
  metrics_.recovery_records_applied =
      registry.FindOrCreateCounter("robodet_recovery_journal_records_applied_total");
  metrics_.recovery_records_dropped =
      registry.FindOrCreateCounter("robodet_recovery_journal_records_dropped_total");
  metrics_.recovery_bytes_dropped =
      registry.FindOrCreateCounter("robodet_recovery_journal_bytes_dropped_total");
}

RecoveryReport StateStore::Recover(TimeMs now) {
  RecoveryReport rep;
  if (!config_.enabled()) {
    recovery_ = rep;
    return rep;
  }
  rep.attempted = true;

  std::lock_guard<std::mutex> lock(mu_);

  // One buffer holds the snapshot file, then the journal file, then the
  // new snapshot, so recovery touches its memory once. Each journal record
  // carries at least the bytes it adds to a snapshot, so the two files'
  // sizes bound the new snapshot's.
  std::string bytes;
  bytes.reserve(StateFileSize(snapshot_path()) + StateFileSize(journal_path()));
  SnapshotContents snap;
  if (ReadFileLimited(snapshot_path(), persistence::kMaxStateFileBytes, &bytes) &&
      persistence::ReadSnapshot(bytes, &snap)) {
    snapshot_bytes_ = bytes.size();
    rep.snapshot_loaded = true;
    rep.snapshot_sections_dropped = snap.sections_dropped;
  }
  // The journal is applied as it is read, one reused record at a time.
  persistence::JournalReader journal;
  const bool journal_parsed =
      ReadFileLimited(journal_path(), persistence::kMaxStateFileBytes, &bytes) &&
      journal.Open(bytes);
  // A journal belongs to the snapshot with the same epoch. With no usable
  // snapshot we still replay (records are self-contained); with a
  // mismatched epoch the journal is stale — its effects are already folded
  // into the snapshot — and is ignored.
  const bool replay =
      journal_parsed && (!rep.snapshot_loaded || journal.epoch() == snap.epoch);

  KeyReplay keys(&snap.keys);
  // Sessions by id, as indices into `images`: the snapshot's, then any
  // that only the journal knows. A close drops the id; a later entry for
  // the same id replaces the earlier one.
  std::vector<SessionImage>& images = snap.sessions;
  std::unordered_map<uint64_t, size_t> session_at;
  session_at.reserve(images.size());
  for (size_t i = 0; i < images.size(); ++i) {
    session_at[images[i].id] = i;
  }

  if (replay) {
    rep.journal_replayed = true;
    JournalRecord rec;
    while (journal.Next(&rec)) {
      switch (rec.type) {
        case JournalRecordType::kKeyIssued:
          keys.Issue(&rec.key);
          break;
        case JournalRecordType::kKeyConsumed:
          keys.Consume(rec.key);
          break;
        case JournalRecordType::kSessionUpdate: {
          auto [it, fresh] = session_at.try_emplace(rec.update.delta.id, images.size());
          if (fresh) {
            images.emplace_back();
          }
          ApplySessionUpdate(rec.update, &images[it->second]);
          break;
        }
        case JournalRecordType::kSessionClosed:
          session_at.erase(rec.session_id);
          break;
      }
      ++rep.journal_records_applied;
    }
    rep.journal_records_dropped = journal.records_dropped();
    rep.journal_bytes_dropped = journal.bytes_dropped();
  }

  rep.cold_start = !rep.snapshot_loaded && !rep.journal_replayed;

  keys.ForEachLive([&](KeyEntryImage* k) {
    keys_->RestoreEntry(IpAddress(k->ip), std::move(k->page_path), std::move(k->key),
                        k->issued_at);
  });
  // Recovery fills an empty table, and RestoreEntry keeps the per-IP and
  // total bounds, so what the table holds now is what was restored.
  rep.key_entries_restored = keys_->total_entries();

  // Install sessions in id order so recovery is deterministic regardless
  // of hash-map iteration order.
  std::vector<SessionImage*> ordered;
  ordered.reserve(session_at.size());
  for (const auto& [id, at] : session_at) {
    ordered.push_back(&images[at]);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const SessionImage* a, const SessionImage* b) { return a->id < b->id; });
  for (SessionImage* img : ordered) {
    FillFromImage(img, sessions_->Restore(img->id, {IpAddress(img->ip), img->user_agent},
                                          img->first_request));
    ++rep.sessions_restored;
  }

  // Start the new life from a consistent base: fold the salvage into a
  // fresh snapshot and an empty journal at a new epoch. The decoded
  // snapshot goes first, so the new one does not add to its peak.
  epoch_ = std::max(rep.snapshot_loaded ? snap.epoch : 0,
                    journal_parsed ? journal.epoch() : 0);
  snap = SnapshotContents{};
  CheckpointLocked(now, std::move(bytes));
  rep.epoch = epoch_;

  recovery_ = rep;
  IncIfBound(rep.cold_start ? metrics_.recovery_cold_starts : metrics_.recovery_warm_starts);
  IncIfBound(metrics_.recovery_key_entries, rep.key_entries_restored);
  IncIfBound(metrics_.recovery_sessions, rep.sessions_restored);
  IncIfBound(metrics_.recovery_sections_dropped, rep.snapshot_sections_dropped);
  IncIfBound(metrics_.recovery_records_applied, rep.journal_records_applied);
  IncIfBound(metrics_.recovery_records_dropped, rep.journal_records_dropped);
  IncIfBound(metrics_.recovery_bytes_dropped, rep.journal_bytes_dropped);
  return rep;
}

bool StateStore::Checkpoint(TimeMs now) {
  if (!config_.enabled()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked(now);
}

bool StateStore::CheckpointLocked(TimeMs now, std::string buffer) {
  const uint64_t t0 = MonotonicNanos();
  const uint64_t next = epoch_ + 1;
  // Reserved from the previous snapshot's size, so the buffer is filled
  // once instead of regrowing; untouched reserve costs address space only.
  buffer.reserve(std::max(buffer.capacity(), snapshot_bytes_ + snapshot_bytes_ / 4));
  persistence::SnapshotWriter writer(next, now, static_cast<uint32_t>(keys_->num_shards()),
                                     static_cast<uint32_t>(sessions_->num_shards()),
                                     std::move(buffer));
  for (size_t i = 0; i < keys_->num_shards(); ++i) {
    const auto entries = keys_->ExportShard(i);
    ByteWriter* payload = writer.BeginSection();
    payload->PutU32(static_cast<uint32_t>(entries.size()));
    for (const auto& e : entries) {
      persistence::EncodeKeyEntry({e.ip, e.page_path, e.key, e.issued_at}, payload);
    }
    writer.EndSection();
  }
  std::unordered_map<uint64_t, persistence::RunMarks> fresh_marks;
  fresh_marks.reserve(sessions_->active_count());
  for (size_t i = 0; i < sessions_->num_shards(); ++i) {
    ByteWriter* payload = writer.BeginSection();
    const size_t count_at = payload->size();
    payload->PutU32(0);
    uint32_t count = 0;
    // Encoded straight from the live sessions, in id order, under the
    // shard's lock.
    sessions_->ForEachSessionInShard(i, [&](const SessionState& s) {
      const persistence::SessionFields f = FieldsOfLive(s);
      persistence::EncodeSession(f, payload);
      fresh_marks[f.id] = persistence::RunLengths(f);
      ++count;
    });
    payload->PatchU32(count_at, count);
    writer.EndSection();
  }
  const std::string snapshot = writer.Finish();
  snapshot_bytes_ = snapshot.size();
  if (!WriteFileAtomic(snapshot_path(), snapshot)) {
    IncIfBound(metrics_.checkpoint_failures);
    return false;
  }
  if (journal_open_) {
    journal_.close();
  }
  journal_.clear();
  journal_.open(journal_path(), std::ios::binary | std::ios::trunc);
  journal_open_ = journal_.is_open();
  journal_bytes_ = 0;
  if (journal_open_) {
    const std::string header = persistence::EncodeJournalHeader(next);
    journal_.write(header.data(), static_cast<std::streamsize>(header.size()));
    journal_.flush();
    journal_open_ = static_cast<bool>(journal_);
    journal_bytes_ = header.size();
  }
  epoch_ = next;
  records_since_checkpoint_ = 0;
  marks_ = std::move(fresh_marks);
  IncIfBound(metrics_.checkpoints);
  ObserveUsSince(metrics_.checkpoint_us, t0);
  if (!journal_open_) {
    IncIfBound(metrics_.checkpoint_failures);
  }
  return journal_open_;
}

template <typename Encode>
void StateStore::AppendLocked(TimeMs now, Encode encode) {
  last_now_ = std::max(last_now_, now);
  if (!journal_open_) {
    return;
  }
  const uint64_t t0 = MonotonicNanos();
  record_.Clear();
  encode(&record_);
  const std::string& bytes = record_.bytes();
  journal_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // Flushed per record: the simulated-crash model (and a real kill -9)
  // keeps everything the stream has pushed to the OS.
  journal_.flush();
  if (!journal_) {
    journal_open_ = false;
    IncIfBound(metrics_.journal_write_failures);
    return;
  }
  journal_bytes_ += bytes.size();
  ++records_since_checkpoint_;
  IncIfBound(metrics_.journal_records);
  ObserveUsSince(metrics_.journal_append_us, t0);
  const bool record_trigger = config_.snapshot_interval_records > 0 &&
                              records_since_checkpoint_ >= config_.snapshot_interval_records;
  const bool size_trigger = journal_bytes_ >= kMaxJournalBytes;
  if (record_trigger || size_trigger) {
    CheckpointLocked(last_now_);
  }
}

void StateStore::OnKeyIssued(IpAddress ip, const std::string& page_path, const std::string& key,
                             TimeMs issued_at) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked(issued_at, [&](ByteWriter* w) {
    persistence::EncodeKeyIssued({ip.value(), page_path, key, issued_at}, w);
  });
}

void StateStore::OnKeyConsumed(IpAddress ip, const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked(last_now_,
               [&](ByteWriter* w) { persistence::EncodeKeyConsumed(ip.value(), key, w); });
}

// Journals each run from its mark on, then moves the marks to the runs'
// ends. While the journal is closed the marks stay put: the checkpoint
// that reopens it resets them all.
void StateStore::OnSessionUpdated(const SessionState& session) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked(session.last_request_time(), [&](ByteWriter* w) {
    const persistence::SessionFields f = FieldsOfLive(session);
    persistence::RunMarks& marks = marks_[f.id];
    persistence::EncodeSessionUpdate(f, marks, w);
    marks = persistence::RunLengths(f);
  });
}

void StateStore::OnSessionClosed(const SessionState& session) {
  std::lock_guard<std::mutex> lock(mu_);
  marks_.erase(session.id());
  AppendLocked(session.last_request_time(),
               [&](ByteWriter* w) { persistence::EncodeSessionClosed(session.id(), w); });
}

void StateStore::OnCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_open_) {
    journal_.close();
  }
  journal_open_ = false;
  marks_.clear();
}

InspectionResult InspectState(const std::string& state_dir) {
  InspectionResult res;
  const std::string snap_path = state_dir + "/snapshot.bin";
  const std::string jrnl_path = state_dir + "/journal.bin";
  std::error_code ec;
  res.snapshot_present = std::filesystem::exists(snap_path, ec);
  res.journal_present = std::filesystem::exists(jrnl_path, ec);

  if (res.snapshot_present) {
    std::string bytes;
    if (ReadFileLimited(snap_path, persistence::kMaxStateFileBytes, &bytes)) {
      res.snapshot_valid = persistence::ReadSnapshot(bytes, &res.snapshot);
    }
    if (!res.snapshot_valid || res.snapshot.sections_dropped > 0) {
      res.clean = false;
    }
  }
  if (res.journal_present) {
    std::string bytes;
    persistence::JournalReader reader;
    if (ReadFileLimited(jrnl_path, persistence::kMaxStateFileBytes, &bytes) &&
        reader.Open(bytes)) {
      res.journal_valid = true;
      res.journal.epoch = reader.epoch();
      persistence::JournalRecord rec;
      while (reader.Next(&rec)) {
        ++res.journal.records;
      }
      res.journal.records_dropped = reader.records_dropped();
      res.journal.bytes_dropped = reader.bytes_dropped();
    }
    if (!res.journal_valid || res.journal.records_dropped > 0 || res.journal.bytes_dropped > 0) {
      res.clean = false;
    }
  }
  if (res.snapshot_valid && res.journal_valid) {
    res.epoch_match = res.snapshot.epoch == res.journal.epoch;
    // A journal older than the snapshot is the legitimate
    // crash-during-checkpoint window (its effects are already folded in);
    // a journal from the future is not explainable by any valid history.
    if (res.journal.epoch > res.snapshot.epoch) {
      res.clean = false;
    }
  }
  return res;
}

}  // namespace robodet
