#include "src/proxy/persistence/state_store.h"

#include <algorithm>
#include <filesystem>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/util/binio.h"

namespace robodet {
namespace {

using persistence::JournalContents;
using persistence::JournalRecord;
using persistence::JournalRecordType;
using persistence::KeyEntryImage;
using persistence::SessionImage;
using persistence::SessionUpdateImage;
using persistence::SnapshotContents;

// Size-based checkpoint trigger, beside snapshot_interval_records:
// whichever fires first.
constexpr size_t kMaxJournalBytes = 64u << 20;

// Identity of a key-table entry for idempotent replay: the beacon key is
// random per issue, so (ip, key) is unique in practice.
std::string KeyIdentity(uint32_t ip, const std::string& key) {
  std::string id(4, '\0');
  for (int i = 0; i < 4; ++i) {
    id[static_cast<size_t>(i)] = static_cast<char>((ip >> (8 * i)) & 0xffu);
  }
  id += key;
  return id;
}

// Copies the scalar (non-vector) state of a live session.
SessionImage ScalarsFromLive(const SessionState& s) {
  SessionImage img;
  img.id = s.id();
  img.ip = s.key().ip.value();
  img.user_agent = s.key().user_agent;
  img.first_request = s.first_request_time();
  img.last_request = s.last_request_time();
  img.signals = s.signals();
  img.request_count = s.observation().request_count;
  img.instrumented_pages = s.observation().instrumented_pages;
  img.blocked = s.blocked();
  img.cgi_requests = s.cgi_requests();
  img.get_requests = s.get_requests();
  img.error_responses = s.error_responses();
  return img;
}

SessionImage ImageFromLive(const SessionState& s) {
  SessionImage img = ScalarsFromLive(s);
  const auto& ipi = s.observation().instrumented_page_indices;
  img.instrumented_page_indices.assign(ipi.begin(), ipi.end());
  img.events = s.events();
  img.served_links = s.served_links().ordered_hashes();
  img.served_embeds = s.served_embeds().ordered_hashes();
  img.visited_urls = s.visited_urls().ordered_hashes();
  return img;
}

// Applies a suffix append guarded by its before-count: applies exactly
// once whether or not the snapshot already folded it in.
template <typename T>
void ApplySuffix(std::vector<T>* dst, const std::vector<T>& suffix, uint32_t before) {
  if (dst->size() == before) {
    dst->insert(dst->end(), suffix.begin(), suffix.end());
  }
}

void ApplyUpdate(const SessionUpdateImage& u, SessionImage* img) {
  const SessionImage& d = u.delta;
  img->id = d.id;
  img->ip = d.ip;
  img->user_agent = d.user_agent;
  img->first_request = d.first_request;
  img->last_request = d.last_request;
  img->signals = d.signals;
  img->request_count = d.request_count;
  img->instrumented_pages = d.instrumented_pages;
  img->blocked = d.blocked;
  img->cgi_requests = d.cgi_requests;
  img->get_requests = d.get_requests;
  img->error_responses = d.error_responses;
  ApplySuffix(&img->instrumented_page_indices, d.instrumented_page_indices,
              u.page_indices_before);
  ApplySuffix(&img->events, d.events, u.events_before);
  ApplySuffix(&img->served_links, d.served_links, u.links_before);
  ApplySuffix(&img->served_embeds, d.served_embeds, u.embeds_before);
  ApplySuffix(&img->visited_urls, d.visited_urls, u.visited_before);
}

}  // namespace

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

  SnapshotContents snap;
  {
    std::string bytes;
    if (ReadFileLimited(snapshot_path(), persistence::kMaxStateFileBytes, &bytes) &&
        persistence::ReadSnapshot(bytes, &snap)) {
      rep.snapshot_loaded = true;
      rep.snapshot_sections_dropped = snap.sections_dropped;
    }
  }
  JournalContents jrnl;
  bool journal_parsed = false;
  {
    std::string bytes;
    if (ReadFileLimited(journal_path(), persistence::kMaxStateFileBytes, &bytes) &&
        persistence::ReadJournal(bytes, &jrnl)) {
      journal_parsed = true;
    }
  }
  // A journal belongs to the snapshot with the same epoch. With no usable
  // snapshot we still replay (records are self-contained); with a
  // mismatched epoch the journal is stale — its effects are already folded
  // into the snapshot — and is ignored.
  const bool replay = journal_parsed && (!rep.snapshot_loaded || jrnl.epoch == snap.epoch);

  std::vector<KeyEntryImage> keys = std::move(snap.keys);
  std::unordered_set<std::string> key_ids;
  key_ids.reserve(keys.size());
  for (const KeyEntryImage& k : keys) {
    key_ids.insert(KeyIdentity(k.ip, k.key));
  }
  std::unordered_map<uint64_t, SessionImage> session_map;
  session_map.reserve(snap.sessions.size());
  for (SessionImage& s : snap.sessions) {
    const uint64_t id = s.id;
    session_map[id] = std::move(s);
  }

  if (replay) {
    rep.journal_replayed = true;
    rep.journal_records_dropped = jrnl.records_dropped;
    rep.journal_bytes_dropped = jrnl.bytes_dropped;
    for (const JournalRecord& rec : jrnl.records) {
      switch (rec.type) {
        case JournalRecordType::kKeyIssued: {
          if (key_ids.insert(KeyIdentity(rec.key.ip, rec.key.key)).second) {
            keys.push_back(rec.key);
          }
          break;
        }
        case JournalRecordType::kKeyConsumed: {
          if (key_ids.erase(KeyIdentity(rec.key.ip, rec.key.key)) > 0) {
            auto it = std::find_if(keys.begin(), keys.end(), [&](const KeyEntryImage& k) {
              return k.ip == rec.key.ip && k.key == rec.key.key;
            });
            if (it != keys.end()) {
              keys.erase(it);
            }
          }
          break;
        }
        case JournalRecordType::kSessionUpdate: {
          ApplyUpdate(rec.update, &session_map[rec.update.delta.id]);
          break;
        }
        case JournalRecordType::kSessionClosed: {
          session_map.erase(rec.session_id);
          break;
        }
      }
      ++rep.journal_records_applied;
    }
  }

  rep.cold_start = !rep.snapshot_loaded && !rep.journal_replayed;

  for (const KeyEntryImage& k : keys) {
    keys_->RestoreEntry(IpAddress(k.ip), k.page_path, k.key, k.issued_at);
    ++rep.key_entries_restored;
  }

  // Install sessions in id order so recovery is deterministic regardless
  // of hash-map iteration order.
  std::vector<SessionImage*> ordered;
  ordered.reserve(session_map.size());
  for (auto& [id, img] : session_map) {
    ordered.push_back(&img);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const SessionImage* a, const SessionImage* b) { return a->id < b->id; });
  for (SessionImage* img : ordered) {
    auto session = std::make_unique<SessionState>(
        img->id, SessionKey{IpAddress(img->ip), img->user_agent}, img->first_request);
    session->RestoreScalars(img->last_request, img->request_count, img->instrumented_pages,
                            img->blocked, img->cgi_requests, img->get_requests,
                            img->error_responses);
    session->signals() = img->signals;
    if (img->events.size() > SessionState::kMaxTrackedEvents) {
      img->events.resize(SessionState::kMaxTrackedEvents);
    }
    session->mutable_events() = std::move(img->events);
    if (img->instrumented_page_indices.size() > 64) {
      img->instrumented_page_indices.resize(64);
    }
    session->mutable_instrumented_page_indices().assign(img->instrumented_page_indices.begin(),
                                                        img->instrumented_page_indices.end());
    for (uint64_t h : img->served_links) {
      session->served_links().InsertHash(h);
    }
    for (uint64_t h : img->served_embeds) {
      session->served_embeds().InsertHash(h);
    }
    for (uint64_t h : img->visited_urls) {
      session->visited_urls().InsertHash(h);
    }
    sessions_->Restore(std::move(session));
    ++rep.sessions_restored;
  }

  // Start the new life from a consistent base: fold the salvage into a
  // fresh snapshot and an empty journal at a new epoch.
  epoch_ = std::max(rep.snapshot_loaded ? snap.epoch : 0,
                    journal_parsed ? jrnl.epoch : 0);
  CheckpointLocked(now);
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

bool StateStore::CheckpointLocked(TimeMs now) {
  const uint64_t next = epoch_ + 1;
  persistence::SnapshotWriter writer(next, now, static_cast<uint32_t>(keys_->num_shards()),
                                     static_cast<uint32_t>(sessions_->num_shards()));
  for (size_t i = 0; i < keys_->num_shards(); ++i) {
    const auto entries = keys_->ExportShard(i);
    ByteWriter payload;
    payload.PutU32(static_cast<uint32_t>(entries.size()));
    for (const auto& e : entries) {
      persistence::EncodeKeyEntry(KeyEntryImage{e.ip, e.page_path, e.key, e.issued_at}, &payload);
    }
    writer.AddSection(payload.bytes());
  }
  std::unordered_map<uint64_t, Marks> fresh_marks;
  for (size_t i = 0; i < sessions_->num_shards(); ++i) {
    std::vector<SessionImage> images;
    sessions_->ForEachSessionInShard(
        i, [&images](const SessionState& s) { images.push_back(ImageFromLive(s)); });
    std::sort(images.begin(), images.end(),
              [](const SessionImage& a, const SessionImage& b) { return a.id < b.id; });
    ByteWriter payload;
    payload.PutU32(static_cast<uint32_t>(images.size()));
    for (const SessionImage& img : images) {
      persistence::EncodeSession(img, &payload);
      Marks m;
      m.page_indices = static_cast<uint32_t>(img.instrumented_page_indices.size());
      m.events = static_cast<uint32_t>(img.events.size());
      m.links = static_cast<uint32_t>(img.served_links.size());
      m.embeds = static_cast<uint32_t>(img.served_embeds.size());
      m.visited = static_cast<uint32_t>(img.visited_urls.size());
      fresh_marks[img.id] = m;
    }
    writer.AddSection(payload.bytes());
  }
  if (!WriteFileAtomic(snapshot_path(), writer.Finish())) {
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
  if (!journal_open_) {
    IncIfBound(metrics_.checkpoint_failures);
  }
  return journal_open_;
}

void StateStore::AppendLocked(const JournalRecord& rec, TimeMs now) {
  last_now_ = std::max(last_now_, now);
  if (!journal_open_) {
    return;
  }
  const std::string bytes = persistence::EncodeJournalRecord(rec);
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
  JournalRecord rec;
  rec.type = JournalRecordType::kKeyIssued;
  rec.key = KeyEntryImage{ip.value(), page_path, key, issued_at};
  AppendLocked(rec, issued_at);
}

void StateStore::OnKeyConsumed(IpAddress ip, const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  JournalRecord rec;
  rec.type = JournalRecordType::kKeyConsumed;
  rec.key.ip = ip.value();
  rec.key.key = key;
  AppendLocked(rec, last_now_);
}

void StateStore::OnSessionUpdated(const SessionState& session) {
  std::lock_guard<std::mutex> lock(mu_);
  JournalRecord rec;
  rec.type = JournalRecordType::kSessionUpdate;
  rec.update = BuildUpdateLocked(session);
  AppendLocked(rec, session.last_request_time());
}

void StateStore::OnSessionClosed(const SessionState& session) {
  std::lock_guard<std::mutex> lock(mu_);
  marks_.erase(session.id());
  JournalRecord rec;
  rec.type = JournalRecordType::kSessionClosed;
  rec.session_id = session.id();
  AppendLocked(rec, session.last_request_time());
}

void StateStore::OnCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_open_) {
    journal_.close();
  }
  journal_open_ = false;
  marks_.clear();
}

persistence::SessionUpdateImage StateStore::BuildUpdateLocked(const SessionState& session) {
  Marks& m = marks_[session.id()];
  SessionUpdateImage u;
  u.delta = ScalarsFromLive(session);

  const auto& ipi = session.observation().instrumented_page_indices;
  u.page_indices_before = m.page_indices;
  for (size_t i = m.page_indices; i < ipi.size(); ++i) {
    u.delta.instrumented_page_indices.push_back(ipi[i]);
  }
  m.page_indices = static_cast<uint32_t>(ipi.size());

  const auto& events = session.events();
  u.events_before = m.events;
  for (size_t i = m.events; i < events.size(); ++i) {
    u.delta.events.push_back(events[i]);
  }
  m.events = static_cast<uint32_t>(events.size());

  const auto& links = session.served_links().ordered_hashes();
  u.links_before = m.links;
  for (size_t i = m.links; i < links.size(); ++i) {
    u.delta.served_links.push_back(links[i]);
  }
  m.links = static_cast<uint32_t>(links.size());

  const auto& embeds = session.served_embeds().ordered_hashes();
  u.embeds_before = m.embeds;
  for (size_t i = m.embeds; i < embeds.size(); ++i) {
    u.delta.served_embeds.push_back(embeds[i]);
  }
  m.embeds = static_cast<uint32_t>(embeds.size());

  const auto& visited = session.visited_urls().ordered_hashes();
  u.visited_before = m.visited;
  for (size_t i = m.visited; i < visited.size(); ++i) {
    u.delta.visited_urls.push_back(visited[i]);
  }
  m.visited = static_cast<uint32_t>(visited.size());

  return u;
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
    if (ReadFileLimited(jrnl_path, persistence::kMaxStateFileBytes, &bytes)) {
      res.journal_valid = persistence::ReadJournal(bytes, &res.journal);
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
