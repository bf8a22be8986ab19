#include "src/proxy/persistence/state_store.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/binio.h"

namespace robodet {
namespace {

using persistence::JournalRecord;
using persistence::JournalRecordType;
using persistence::RunMarks;
using persistence::SessionImage;

constexpr char kStateFile[] = "/state.bin";

// Size-based checkpoint trigger, beside snapshot_interval_records:
// whichever fires first.
constexpr size_t kMaxJournalBytes = 64u << 20;

// Stage histograms observe only what their counter counts (an appended
// record, a rewritten file), so each one's count equals its counter's.
void ObserveUsSince(HistogramMetric* hist, uint64_t t0) {
  if (hist != nullptr) {
    hist->Observe(static_cast<double>(MonotonicNanos() - t0) / 1000.0);
  }
}

// Appends `hashes` as inserting them one by one would; an empty set takes
// them in one block sized to fit.
void AppendHashes(std::span<const uint64_t> hashes, UrlHashSet* set) {
  if (set->size() == 0) {
    set->Restore(hashes);
    return;
  }
  for (uint64_t h : hashes) {
    set->InsertHash(h);
  }
}

// Whether a run, `*decoded` long so far, is at `mark`; if so it takes `n`
// more items.
bool ExtendAtMark(uint32_t* decoded, uint32_t mark, size_t n) {
  if (*decoded != mark) {
    return false;
  }
  *decoded += static_cast<uint32_t>(n);
  return true;
}

// Applies decoded session records to the live table as they are read,
// each to the session it names.
class SessionReplay {
 public:
  explicit SessionReplay(SessionTable* table) : table_(table) {}

  // An update: overwrites the session's scalars and appends each run's
  // suffix whose run is exactly at its mark. An update for a new id
  // creates the session, as a checkpoint's update from marks 0 does. An
  // update whose key or start differs from its session's (no writer makes
  // one) starts the session afresh.
  void Update(const persistence::SessionUpdateImage& u) {
    const SessionImage& d = u.delta;
    const auto it = restored_.find(d.id);
    if (it != restored_.end()) {
      const SessionState& s = *it->second.session;
      if (s.key().ip.value() == d.ip && s.key().user_agent == d.user_agent &&
          s.first_request_time() == d.first_request) {
        Apply(d, u.before, &it->second);
        return;
      }
      Drop(d.id);
    }
    Apply(d, u.before, &Create(d));
  }

  void Close(uint64_t id) { Drop(id); }

 private:
  struct Restored {
    SessionState* session;
    // Each run's length as decoded so far. The marks are compared against
    // these, not against the live runs, which keep only what their bounds
    // allow and each hash once.
    RunMarks decoded;
  };

  Restored& Create(const SessionImage& d) {
    std::optional<uint64_t> replaced;
    SessionState* s =
        table_->Restore(d.id, {IpAddress(d.ip), d.user_agent}, d.first_request, &replaced);
    if (replaced.has_value()) {
      restored_.erase(*replaced);
    }
    return restored_[d.id] = Restored{s, RunMarks{}};
  }

  void Drop(uint64_t id) {
    if (const auto it = restored_.find(id); it != restored_.end()) {
      table_->RemoveRestored(it->second.session);
      restored_.erase(it);
    }
  }

  // The session's own bounds apply to what is appended.
  static void Apply(const SessionImage& d, const RunMarks& before, Restored* r) {
    SessionState* s = r->session;
    s->RestoreScalars(d.last_request, d.request_count, d.instrumented_pages, d.blocked,
                      d.cgi_requests, d.get_requests, d.error_responses);
    s->signals() = d.signals;
    const std::vector<int32_t>& pages = d.instrumented_page_indices;
    if (ExtendAtMark(&r->decoded.page_indices, before.page_indices, pages.size())) {
      std::vector<int>& kept = s->mutable_instrumented_page_indices();
      const size_t room =
          SessionState::kMaxPageIndices - std::min(kept.size(), SessionState::kMaxPageIndices);
      kept.insert(kept.end(), pages.begin(), pages.begin() + std::min(room, pages.size()));
    }
    if (ExtendAtMark(&r->decoded.events, before.events, d.events.size())) {
      s->RestoreEvents(d.events);
    }
    if (ExtendAtMark(&r->decoded.links, before.links, d.served_links.size())) {
      AppendHashes(d.served_links, &s->served_links());
    }
    if (ExtendAtMark(&r->decoded.embeds, before.embeds, d.served_embeds.size())) {
      AppendHashes(d.served_embeds, &s->served_embeds());
    }
    if (ExtendAtMark(&r->decoded.visited, before.visited, d.visited_urls.size())) {
      AppendHashes(d.visited_urls, &s->visited_urls());
    }
  }

  SessionTable* table_;
  std::unordered_map<uint64_t, Restored> restored_;
};

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

std::string StateStore::state_path() const { return config_.state_dir + kStateFile; }

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
  metrics_.recovery_records_applied =
      registry.FindOrCreateCounter("robodet_recovery_journal_records_applied_total");
  metrics_.recovery_records_dropped =
      registry.FindOrCreateCounter("robodet_recovery_journal_records_dropped_total");
  metrics_.recovery_bytes_dropped =
      registry.FindOrCreateCounter("robodet_recovery_journal_bytes_dropped_total");
}

RecoveryReport StateStore::Recover(TimeMs /*now*/) {
  RecoveryReport rep;
  if (!config_.enabled()) {
    recovery_ = rep;
    return rep;
  }
  rep.attempted = true;

  std::lock_guard<std::mutex> lock(mu_);

  // Each record goes into the live tables as it is read, in file order, so
  // recovery holds one record beside them. Keys replay through the table's
  // own expiry and eviction, so the table ends as the issues and consumes
  // left it.
  {
    std::ifstream in(state_path(), std::ios::binary);
    persistence::JournalReader reader;
    if (in && reader.Open(&in)) {
      rep.cold_start = false;
      SessionReplay sessions(sessions_);
      JournalRecord rec;
      while (reader.Next(&rec)) {
        switch (rec.type) {
          case JournalRecordType::kKeyIssued:
            keys_->RestoreEntry(IpAddress(rec.key.ip), rec.key.page_path, rec.key.key,
                                rec.key.issued_at);
            break;
          case JournalRecordType::kKeyConsumed:
            keys_->RestoreConsume(IpAddress(rec.key.ip), rec.key.key);
            break;
          case JournalRecordType::kSessionUpdate:
            sessions.Update(rec.update);
            break;
          case JournalRecordType::kSessionClosed:
            sessions.Close(rec.session_id);
            break;
        }
        ++rep.journal_records_applied;
      }
      rep.journal_records_dropped = reader.records_dropped();
      rep.journal_bytes_dropped = reader.bytes_dropped();
    }
  }

  // Recovery fills empty tables, so what they hold now is what was
  // restored.
  rep.key_entries_restored = keys_->total_entries();
  rep.sessions_restored = sessions_->active_count();

  // Start the new life from a whole file: the salvage compacted into one
  // record per key and session.
  CheckpointLocked();

  recovery_ = rep;
  IncIfBound(rep.cold_start ? metrics_.recovery_cold_starts : metrics_.recovery_warm_starts);
  IncIfBound(metrics_.recovery_key_entries, rep.key_entries_restored);
  IncIfBound(metrics_.recovery_sessions, rep.sessions_restored);
  IncIfBound(metrics_.recovery_records_applied, rep.journal_records_applied);
  IncIfBound(metrics_.recovery_records_dropped, rep.journal_records_dropped);
  IncIfBound(metrics_.recovery_bytes_dropped, rep.journal_bytes_dropped);
  return rep;
}

bool StateStore::Checkpoint() {
  if (!config_.enabled()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

bool StateStore::CheckpointLocked() {
  const uint64_t t0 = MonotonicNanos();
  // The records go to a temporary file as they are encoded, and the file
  // replaces state.bin by rename, so a crash leaves the old file or the new
  // one whole, never a torn middle.
  const std::string tmp_path = state_path() + ".tmp";
  std::unordered_map<uint64_t, persistence::RunMarks> fresh_marks;
  fresh_marks.reserve(sessions_->active_count());
  bool written = false;
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    auto write = [&out, this] {
      out.write(record_.bytes().data(), static_cast<std::streamsize>(record_.size()));
      record_.Clear();
    };
    record_.Clear();
    persistence::EncodeJournalHeader(&record_);
    write();
    for (size_t i = 0; i < keys_->num_shards(); ++i) {
      for (const auto& e : keys_->ExportShard(i)) {
        persistence::EncodeKeyIssued({e.ip, e.page_path, e.key, e.issued_at}, &record_);
        write();
      }
    }
    for (size_t i = 0; i < sessions_->num_shards(); ++i) {
      // Encoded straight from the live sessions, in id order, under the
      // shard's lock.
      sessions_->ForEachSessionInShard(i, [&](const SessionState& s) {
        const persistence::SessionFields f = FieldsOfLive(s);
        persistence::EncodeSessionUpdate(f, RunMarks{}, &record_);
        write();
        fresh_marks[f.id] = persistence::RunLengths(f);
      });
    }
    out.close();
    written = !out.fail();
  }
  std::error_code ec;
  if (written) {
    std::filesystem::rename(tmp_path, state_path(), ec);
  }
  if (!written || ec) {
    std::filesystem::remove(tmp_path, ec);
    IncIfBound(metrics_.checkpoint_failures);
    return false;
  }
  if (journal_open_) {
    journal_.close();
  }
  journal_.clear();
  journal_.open(state_path(), std::ios::binary | std::ios::app);
  journal_open_ = journal_.is_open();
  records_since_checkpoint_ = 0;
  journal_bytes_ = 0;
  marks_ = std::move(fresh_marks);
  IncIfBound(metrics_.checkpoints);
  ObserveUsSince(metrics_.checkpoint_us, t0);
  if (!journal_open_) {
    IncIfBound(metrics_.checkpoint_failures);
  }
  return journal_open_;
}

template <typename Encode>
void StateStore::AppendLocked(Encode encode) {
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
    // The counts restart on the attempt, not on its success: under a
    // lasting failure (a full disk) the checkpoint retries once an
    // interval, not on every append.
    records_since_checkpoint_ = 0;
    journal_bytes_ = 0;
    CheckpointLocked();
  }
}

void StateStore::OnKeyIssued(IpAddress ip, const std::string& page_path, const std::string& key,
                             TimeMs issued_at) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked([&](ByteWriter* w) {
    persistence::EncodeKeyIssued({ip.value(), page_path, key, issued_at}, w);
  });
}

void StateStore::OnKeyConsumed(IpAddress ip, const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked([&](ByteWriter* w) { persistence::EncodeKeyConsumed(ip.value(), key, w); });
}

// Appends each run from its mark on, then moves the marks to the runs'
// ends. While the file is closed the marks stay put: the checkpoint that
// reopens it resets them all.
void StateStore::OnSessionUpdated(const SessionState& session) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked([&](ByteWriter* w) {
    const persistence::SessionFields f = FieldsOfLive(session);
    persistence::RunMarks& marks = marks_[f.id];
    persistence::EncodeSessionUpdate(f, marks, w);
    marks = persistence::RunLengths(f);
  });
}

void StateStore::OnSessionClosed(const SessionState& session) {
  std::lock_guard<std::mutex> lock(mu_);
  marks_.erase(session.id());
  AppendLocked([&](ByteWriter* w) { persistence::EncodeSessionClosed(session.id(), w); });
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
  const std::string path = state_dir + kStateFile;
  std::error_code ec;
  res.present = std::filesystem::exists(path, ec);
  std::ifstream in(path, std::ios::binary);
  persistence::JournalReader reader;
  res.valid = res.present && in && reader.Open(&in);
  if (!res.valid) {
    return res;
  }
  persistence::JournalRecord rec;
  while (reader.Next(&rec)) {
    switch (rec.type) {
      case JournalRecordType::kKeyIssued:
        ++res.key_issues;
        break;
      case JournalRecordType::kKeyConsumed:
        ++res.key_consumes;
        break;
      case JournalRecordType::kSessionUpdate:
        ++res.session_updates;
        break;
      case JournalRecordType::kSessionClosed:
        ++res.session_closes;
        break;
    }
  }
  res.records_dropped = reader.records_dropped();
  res.bytes_dropped = reader.bytes_dropped();
  res.clean = res.records_dropped == 0 && res.bytes_dropped == 0;
  return res;
}

}  // namespace robodet
