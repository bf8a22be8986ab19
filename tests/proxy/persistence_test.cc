// Crash-recovery round trip for the persistence layer. The core claim:
// snapshot + journal recover the tables to exactly the pre-crash state,
// and a crash that tears the journal at ANY byte — every record boundary
// and every mid-record offset — recovers to the clean prefix of mutations
// that were fully flushed, never to garbage and never with a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unistd.h>

#include "src/js/generator.h"
#include "src/obs/metrics.h"
#include "src/proxy/key_table.h"
#include "src/proxy/persistence/state_store.h"
#include "src/proxy/proxy_server.h"
#include "src/proxy/session_table.h"

namespace robodet {
namespace {

constexpr uint32_t kIp1 = 0x0a000001;
constexpr uint32_t kIp2 = 0x0a000002;

// One live-table pair plus the store journaling it.
struct Rig {
  explicit Rig(const std::string& dir)
      : keys(KeyTable::Config{.num_shards = 4}),
        sessions(SessionTable::Config{.num_shards = 4}),
        store(PersistenceConfig{.state_dir = dir,
                                // Explicit checkpoints only: the tests
                                // control exactly when the journal resets.
                                .snapshot_interval_records = 0},
              &keys, &sessions) {
    keys.set_observer(&store);
    sessions.set_close_observer(
        [this](const SessionState& s) { store.OnSessionClosed(s); });
  }

  KeyTable keys;
  SessionTable sessions;
  StateStore store;
};

// Canonical dump of both tables; two table pairs holding the same state
// produce the same string regardless of hash-map iteration order.
std::string Fingerprint(KeyTable& keys, SessionTable& sessions) {
  std::ostringstream out;
  std::vector<KeyTable::ExportedEntry> entries;
  for (size_t s = 0; s < keys.num_shards(); ++s) {
    const auto shard = keys.ExportShard(s);
    entries.insert(entries.end(), shard.begin(), shard.end());
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return std::tie(a.ip, a.issued_at, a.key) < std::tie(b.ip, b.issued_at, b.key);
  });
  for (const auto& e : entries) {
    out << "K " << e.ip << ' ' << e.page_path << ' ' << e.key << ' ' << e.issued_at << '\n';
  }
  std::vector<std::string> rows;
  for (size_t s = 0; s < sessions.num_shards(); ++s) {
    sessions.ForEachSessionInShard(s, [&rows](const SessionState& ss) {
      std::ostringstream r;
      r << "S " << ss.id() << ' ' << ss.key().ip.value() << ' ' << ss.key().user_agent << ' '
        << ss.first_request_time() << ' ' << ss.last_request_time() << ' '
        << ss.request_count() << ' ' << ss.instrumented_pages() << ' ' << ss.blocked() << ' '
        << ss.cgi_requests() << ' ' << ss.get_requests() << ' ' << ss.error_responses();
      const SessionSignals& g = ss.signals();
      r << " sig:";
      for (const SignalIndex& index : kSignalIndices) {
        r << g.*index.field << ',';
      }
      r << g.ua_echo_agent;
      r << " ev:";
      for (const RequestEvent& e : ss.events()) {
        r << static_cast<int>(e.kind) << '/' << static_cast<int>(e.status_class) << '/'
          << e.is_head << e.has_referrer << e.unseen_referrer << e.is_embedded
          << e.is_link_follow << e.is_favicon << ';';
      }
      r << " idx:";
      for (int i : ss.observation().instrumented_page_indices) {
        r << i << ',';
      }
      r << " links:";
      for (uint64_t h : ss.served_links().ordered_hashes()) {
        r << h << ',';
      }
      r << " embeds:";
      for (uint64_t h : ss.served_embeds().ordered_hashes()) {
        r << h << ',';
      }
      r << " visited:";
      for (uint64_t h : ss.visited_urls().ordered_hashes()) {
        r << h << ',';
      }
      rows.push_back(r.str());
    });
  }
  std::sort(rows.begin(), rows.end());
  for (const std::string& row : rows) {
    out << row << '\n';
  }
  return out.str();
}

RequestEvent MakeEvent(ResourceKind kind, uint8_t status_class) {
  RequestEvent e;
  e.kind = kind;
  e.status_class = status_class;
  return e;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("robodet_persistence_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Dir(const std::string& sub = "live") const { return (dir_ / sub).string(); }

  static void CopyState(const std::string& from_dir, const std::string& to_dir,
                        size_t journal_bytes) {
    std::filesystem::create_directories(to_dir);
    std::filesystem::copy_file(std::filesystem::path(from_dir) / "snapshot.bin",
                               std::filesystem::path(to_dir) / "snapshot.bin",
                               std::filesystem::copy_options::overwrite_existing);
    std::ifstream in(std::filesystem::path(from_dir) / "journal.bin", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes.resize(std::min(journal_bytes, bytes.size()));
    std::ofstream out(std::filesystem::path(to_dir) / "journal.bin",
                      std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  std::filesystem::path dir_;
};

// The tentpole scenario: phase A folded into a snapshot, phase B journaled
// one record per mutation, then a crash at every possible cut of the
// journal. Each boundary cut recovers the exact live state after that many
// mutations; each mid-record cut recovers the preceding boundary's state
// and reports the torn bytes.
TEST_F(PersistenceTest, RecoverAtEveryJournalBoundary) {
  Rig live(Dir());
  const auto initial = live.store.Recover(0);
  EXPECT_TRUE(initial.cold_start);

  // Phase A: state that lands in the snapshot.
  live.keys.Record(IpAddress(kIp1), "/a.html", "key-a1", 1000);
  live.keys.Record(IpAddress(kIp2), "/b.html", "key-b1", 1100);
  {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp1), "ua-one"}, 1200);
    const int idx = s->RecordRequest(1200, MakeEvent(ResourceKind::kHtml, 2));
    SessionState::MarkSignal(s->signals().css_probe_at, idx);
    s->NoteInstrumentedPage();
    s->served_links().Insert("http://h.test/one.html");
    live.store.OnSessionUpdated(*s);
  }
  ASSERT_TRUE(live.store.Checkpoint(2000));
  const size_t header_bytes = std::filesystem::file_size(Dir() + "/journal.bin");
  std::vector<size_t> boundaries{header_bytes};
  std::vector<std::string> expected{Fingerprint(live.keys, live.sessions)};

  // Phase B: one journal record per step; fingerprint the live tables after
  // each so every boundary has a known-good expected state.
  std::vector<std::function<void()>> steps;
  steps.push_back([&] { live.keys.Record(IpAddress(kIp1), "/c.html", "key-c1", 2100); });
  steps.push_back([&] {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp1), "ua-one"}, 2200);
    const int idx = s->RecordRequest(2200, MakeEvent(ResourceKind::kImage, 2));
    SessionState::MarkSignal(s->signals().mouse_event_at, idx);
    s->visited_urls().Insert("http://h.test/one.html");
    live.store.OnSessionUpdated(*s);
  });
  steps.push_back(
      [&] { EXPECT_TRUE(live.keys.MatchAndConsume(IpAddress(kIp1), "key-a1", 2300)); });
  steps.push_back([&] {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp2), "ua-two"}, 2400);
    const int idx = s->RecordRequest(2400, MakeEvent(ResourceKind::kCgi, 4));
    SessionState::MarkSignal(s->signals().wrong_key_at, idx);
    s->served_embeds().Insert("http://h.test/probe.css");
    live.store.OnSessionUpdated(*s);
  });
  steps.push_back([&] {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp2), "ua-two"}, 2500);
    s->RecordRequest(2500, MakeEvent(ResourceKind::kRobotsTxt, 2));
    s->signals().ua_echo_agent = "ua-two-echo";
    live.store.OnSessionUpdated(*s);
  });
  // Keep ua-two inside its idle window (so the Touch continues the same
  // session rather than splitting), then close ua-one, which has been idle
  // longer than the timeout. The close is its own journal record.
  steps.push_back([&] {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp2), "ua-two"}, kHour - 100);
    s->RecordRequest(kHour - 100, MakeEvent(ResourceKind::kHtml, 2));
    live.store.OnSessionUpdated(*s);
  });
  steps.push_back([&] {
    size_t closed = 0;
    for (size_t i = 0; i < live.sessions.num_shards(); ++i) {
      closed += live.sessions.CloseIdleIncremental(kHour + 10000);
    }
    EXPECT_EQ(closed, 1u);
  });

  for (const auto& step : steps) {
    step();
    boundaries.push_back(std::filesystem::file_size(Dir() + "/journal.bin"));
    expected.push_back(Fingerprint(live.keys, live.sessions));
  }
  ASSERT_EQ(InspectState(Dir()).journal.records, steps.size());

  // Crash at every record boundary: exact replay of the flushed prefix.
  for (size_t i = 0; i < boundaries.size(); ++i) {
    const std::string crash_dir = Dir("boundary_" + std::to_string(i));
    CopyState(Dir(), crash_dir, boundaries[i]);
    Rig recovered(crash_dir);
    const RecoveryReport report = recovered.store.Recover(9000);
    EXPECT_FALSE(report.cold_start);
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_EQ(report.journal_records_applied, i);
    EXPECT_EQ(report.journal_records_dropped, 0u);
    EXPECT_EQ(report.journal_bytes_dropped, 0u);
    EXPECT_EQ(Fingerprint(recovered.keys, recovered.sessions), expected[i])
        << "boundary " << i;
  }

  // Crash mid-record, at every byte of every frame: the torn tail is
  // dropped, the preceding boundary's state is recovered.
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    for (size_t cut = boundaries[i] + 1; cut < boundaries[i + 1]; ++cut) {
      const std::string crash_dir = Dir("torn_" + std::to_string(cut));
      CopyState(Dir(), crash_dir, cut);
      Rig recovered(crash_dir);
      const RecoveryReport report = recovered.store.Recover(9000);
      EXPECT_EQ(report.journal_records_applied, i) << "cut " << cut;
      EXPECT_GT(report.journal_bytes_dropped, 0u) << "cut " << cut;
      EXPECT_EQ(Fingerprint(recovered.keys, recovered.sessions), expected[i])
          << "cut " << cut;
      std::filesystem::remove_all(crash_dir);
    }
  }

  // Crash inside the journal header: the journal is unusable, the snapshot
  // alone is recovered.
  for (size_t cut = 0; cut < header_bytes; ++cut) {
    const std::string crash_dir = Dir("hdr_" + std::to_string(cut));
    CopyState(Dir(), crash_dir, cut);
    Rig recovered(crash_dir);
    const RecoveryReport report = recovered.store.Recover(9000);
    EXPECT_TRUE(report.snapshot_loaded) << "cut " << cut;
    EXPECT_FALSE(report.journal_replayed) << "cut " << cut;
    EXPECT_EQ(Fingerprint(recovered.keys, recovered.sessions), expected[0]) << "cut " << cut;
    std::filesystem::remove_all(crash_dir);
  }
}

// A crash in the middle of a checkpoint leaves snapshot.bin.tmp torn, or
// written whole but not yet renamed, beside the intact snapshot.bin and
// its journal. Recovery ignores the temporary file, recovers warm from
// the snapshot and the journal, and its own checkpoint replaces the
// temporary file.
TEST_F(PersistenceTest, CrashMidCheckpointRecoversFromTheLastSnapshot) {
  Rig live(Dir());
  live.store.Recover(0);
  live.keys.Record(IpAddress(kIp1), "/a.html", "key-a1", 1000);
  {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp1), "ua-one"}, 1100);
    s->RecordRequest(1100, MakeEvent(ResourceKind::kHtml, 2));
    s->served_links().Insert("http://h.test/one.html");
    live.store.OnSessionUpdated(*s);
  }
  ASSERT_TRUE(live.store.Checkpoint(2000));
  live.keys.Record(IpAddress(kIp2), "/b.html", "key-b1", 2100);
  {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp1), "ua-one"}, 2200);
    s->RecordRequest(2200, MakeEvent(ResourceKind::kImage, 2));
    s->visited_urls().Insert("http://h.test/one.html");
    live.store.OnSessionUpdated(*s);
  }
  const std::string expected = Fingerprint(live.keys, live.sessions);
  std::ifstream in(Dir() + "/snapshot.bin", std::ios::binary);
  const std::string snapshot((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  live.store.OnCrash();

  for (const size_t cut : {size_t{0}, snapshot.size() / 2, snapshot.size()}) {
    const std::string crash_dir = Dir("crash_" + std::to_string(cut));
    CopyState(Dir(), crash_dir, SIZE_MAX);
    const std::string tmp = crash_dir + "/snapshot.bin.tmp";
    std::ofstream(tmp, std::ios::binary) << snapshot.substr(0, cut) << "torn";
    Rig recovered(crash_dir);
    const RecoveryReport report = recovered.store.Recover(9000);
    EXPECT_FALSE(report.cold_start) << "cut " << cut;
    EXPECT_TRUE(report.snapshot_loaded) << "cut " << cut;
    EXPECT_TRUE(report.journal_replayed) << "cut " << cut;
    EXPECT_EQ(report.journal_records_applied, 2u) << "cut " << cut;
    EXPECT_EQ(Fingerprint(recovered.keys, recovered.sessions), expected) << "cut " << cut;
    EXPECT_FALSE(std::filesystem::exists(tmp)) << "cut " << cut;
    const InspectionResult after = InspectState(crash_dir);
    EXPECT_TRUE(after.clean) << "cut " << cut;
    EXPECT_EQ(after.snapshot.epoch, report.epoch) << "cut " << cut;
    EXPECT_EQ(after.snapshot.keys, 2u) << "cut " << cut;
    EXPECT_EQ(after.snapshot.sessions, 1u) << "cut " << cut;
  }
}

// A checkpoint whose snapshot cannot be written counts a failure, leaves
// no temporary file, and keeps journaling at the old epoch, so a crash
// after it loses nothing.
TEST_F(PersistenceTest, FailedCheckpointKeepsJournaling) {
  MetricsRegistry registry;
  Rig live(Dir());
  live.store.BindMetrics(registry);
  live.store.Recover(0);
  live.keys.Record(IpAddress(kIp1), "/a.html", "key-a1", 100);
  // A directory where the temporary file goes: the snapshot cannot open.
  const std::string tmp = Dir() + "/snapshot.bin.tmp";
  std::filesystem::create_directory(tmp);
  EXPECT_FALSE(live.store.Checkpoint(200));
  EXPECT_EQ(registry.Scrape().CounterValue("robodet_persistence_checkpoint_failures_total"), 1u);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  live.keys.Record(IpAddress(kIp2), "/b.html", "key-b1", 300);
  const std::string expected = Fingerprint(live.keys, live.sessions);
  live.store.OnCrash();

  Rig recovered(Dir());
  const RecoveryReport report = recovered.store.Recover(400);
  EXPECT_EQ(report.journal_records_applied, 2u);
  EXPECT_EQ(Fingerprint(recovered.keys, recovered.sessions), expected);
}

// A damaged but CRC-valid directory: a snapshot session whose runs hold
// repeated hashes and more events and page indices than a session keeps,
// then journal updates marked against the runs as written. Replay appends
// a suffix only when the run as decoded, repeats and overflow included,
// is at the suffix's mark, so the session recovers to what the image of
// its decoded runs, cut to the session's bounds, holds.
TEST_F(PersistenceTest, ReplayMarksCountRunsAsDecoded) {
  const std::string dir = Dir();
  std::filesystem::create_directories(dir);
  SessionSignals signals;
  signals.css_probe_at = 3;
  std::vector<int32_t> pages(70, 5);
  std::vector<RequestEvent> events(300, MakeEvent(ResourceKind::kHtml, 2));
  std::vector<uint64_t> links = {1, 2, 2, 3, 1, 3, 3, 2, 1, 1};
  std::vector<uint64_t> visited = {7, 7};
  auto fields = [&](int32_t requests) {
    persistence::SessionFields f;
    f.id = 42;
    f.ip = kIp1;
    f.user_agent = "ua-damaged";
    f.first_request = 100;
    f.last_request = 100 + requests;
    f.signals = &signals;
    f.request_count = requests;
    f.instrumented_page_indices = pages;
    f.events = events;
    f.served_links = links;
    f.visited_urls = visited;
    return f;
  };
  {
    std::ofstream out(dir + "/snapshot.bin", std::ios::binary);
    persistence::SnapshotWriter writer(&out, 1, 100, 1, 1);
    writer.BeginSection()->PutU32(0);
    writer.EndSection();
    ByteWriter* payload = writer.BeginSection();
    payload->PutU32(1);
    persistence::EncodeSession(fields(300), payload);
    writer.EndSection();
  }
  ByteWriter journal;
  journal.PutRaw(persistence::EncodeJournalHeader(1));
  // At the runs' written lengths: every suffix applies (the events and
  // pages past the session's bounds are dropped).
  const persistence::RunMarks at_end = persistence::RunLengths(fields(300));
  pages.push_back(9);
  events.push_back(MakeEvent(ResourceKind::kCss, 2));
  links.insert(links.end(), {4, 2, 5});
  visited.push_back(8);
  persistence::EncodeSessionUpdate(fields(301), at_end, &journal);
  // Marks at the live session's sizes (64 pages, 256 events, 5 distinct
  // links, 2 distinct visited URLs) are stale against the runs as
  // decoded: nothing applies but the scalars.
  const persistence::RunMarks stale{.page_indices = 64, .events = 256, .links = 5, .visited = 2};
  links.resize(5);
  links.push_back(9);
  visited.resize(2);
  visited.push_back(10);
  persistence::EncodeSessionUpdate(fields(302), stale, &journal);
  std::ofstream(dir + "/journal.bin", std::ios::binary) << journal.bytes();

  Rig recovered(dir);
  const RecoveryReport report = recovered.store.Recover(1000);
  EXPECT_EQ(report.journal_records_applied, 2u);
  ASSERT_EQ(report.sessions_restored, 1u);
  const SessionState* s =
      recovered.sessions.Touch(SessionKey{IpAddress(kIp1), "ua-damaged"}, 402);
  EXPECT_EQ(s->id(), 42u);
  EXPECT_EQ(s->request_count(), 302);
  EXPECT_EQ(s->signals().css_probe_at, 3);
  EXPECT_EQ(s->observation().instrumented_page_indices, std::vector<int>(64, 5));
  EXPECT_EQ(s->events().size(), SessionState::kMaxTrackedEvents);
  const std::span<const uint64_t> got_links = s->served_links().ordered_hashes();
  EXPECT_EQ(std::vector<uint64_t>(got_links.begin(), got_links.end()),
            (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  const std::span<const uint64_t> got_visited = s->visited_urls().ordered_hashes();
  EXPECT_EQ(std::vector<uint64_t>(got_visited.begin(), got_visited.end()),
            (std::vector<uint64_t>{7, 8}));
}

// A recovered store is itself crash-safe: recover, mutate, crash again,
// recover again — state carries through both generations.
TEST_F(PersistenceTest, RecoveryChainsAcrossGenerations) {
  {
    Rig first(Dir());
    first.store.Recover(0);
    first.keys.Record(IpAddress(kIp1), "/a.html", "gen1-key", 100);
    SessionState* s = first.sessions.Touch(SessionKey{IpAddress(kIp1), "ua"}, 200);
    s->RecordRequest(200, MakeEvent(ResourceKind::kHtml, 2));
    first.store.OnSessionUpdated(*s);
    first.store.OnCrash();
  }
  std::string mid_fingerprint;
  {
    Rig second(Dir());
    const RecoveryReport report = second.store.Recover(1000);
    EXPECT_FALSE(report.cold_start);
    EXPECT_EQ(report.journal_records_applied, 2u);
    EXPECT_EQ(report.key_entries_restored, 1u);
    SessionState* s = second.sessions.Touch(SessionKey{IpAddress(kIp1), "ua"}, 1200);
    s->RecordRequest(1200, MakeEvent(ResourceKind::kCss, 2));
    second.store.OnSessionUpdated(*s);
    mid_fingerprint = Fingerprint(second.keys, second.sessions);
    second.store.OnCrash();
  }
  Rig third(Dir());
  const RecoveryReport report = third.store.Recover(2000);
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(Fingerprint(third.keys, third.sessions), mid_fingerprint);
  // The key survived two crashes; it must still match exactly once.
  EXPECT_TRUE(third.keys.MatchAndConsume(IpAddress(kIp1), "gen1-key", 2100));
  EXPECT_FALSE(third.keys.MatchAndConsume(IpAddress(kIp1), "gen1-key", 2100));
}

// Corrupt state files degrade to a cold start with metrics, never a crash.
TEST_F(PersistenceTest, CorruptStateColdStartsWithMetrics) {
  std::filesystem::create_directories(Dir());
  {
    std::ofstream snap(Dir() + "/snapshot.bin", std::ios::binary);
    snap << "not a snapshot at all, just hostile bytes \x01\x02\x03";
    std::ofstream jrnl(Dir() + "/journal.bin", std::ios::binary);
    jrnl << "RDJRNL1";  // Truncated magic.
  }
  MetricsRegistry registry;
  Rig rig(Dir());
  rig.store.BindMetrics(registry);
  const RecoveryReport report = rig.store.Recover(100);
  EXPECT_TRUE(report.attempted);
  EXPECT_TRUE(report.cold_start);
  EXPECT_EQ(rig.keys.total_entries(), 0u);
  EXPECT_EQ(rig.sessions.active_count(), 0u);
  EXPECT_EQ(registry.FindOrCreateCounter("robodet_recovery_total", {{"outcome", "cold"}})
                ->Value(),
            1u);
  // The store is fully usable after the cold start.
  rig.keys.Record(IpAddress(kIp1), "/x.html", "fresh", 200);
  EXPECT_GE(registry.Scrape().CounterValue("robodet_persistence_journal_records_total"), 1u);
}

// A stale journal (older epoch than the snapshot) is ignored: its effects
// are already folded into the snapshot, and double-applying would corrupt.
TEST_F(PersistenceTest, StaleJournalEpochIsIgnored) {
  Rig live(Dir());
  live.store.Recover(0);
  live.keys.Record(IpAddress(kIp1), "/a.html", "folded-key", 100);
  // Preserve the epoch-N journal holding the key-issue record...
  std::ifstream in(Dir() + "/journal.bin", std::ios::binary);
  const std::string old_journal((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  in.close();
  // ...then checkpoint (folds the key into the snapshot, epoch N+1) and put
  // the stale journal back, as if the journal reset hit disk late.
  ASSERT_TRUE(live.store.Checkpoint(200));
  live.store.OnCrash();
  {
    std::ofstream out(Dir() + "/journal.bin", std::ios::binary | std::ios::trunc);
    out << old_journal;
  }
  Rig recovered(Dir());
  const RecoveryReport report = recovered.store.Recover(300);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_FALSE(report.journal_replayed);
  EXPECT_EQ(report.journal_records_applied, 0u);
  // Exactly one copy of the key: the snapshot's.
  EXPECT_EQ(recovered.keys.total_entries(), 1u);
  EXPECT_TRUE(recovered.keys.MatchAndConsume(IpAddress(kIp1), "folded-key", 400));
  EXPECT_FALSE(recovered.keys.MatchAndConsume(IpAddress(kIp1), "folded-key", 400));
}

// InspectState mirrors what the statedump tool prints: clean for a healthy
// pair, not clean for a torn tail or an epoch mismatch.
TEST_F(PersistenceTest, InspectStateReportsCleanAndTorn) {
  Rig live(Dir());
  live.store.Recover(0);
  live.keys.Record(IpAddress(kIp1), "/a.html", "k", 100);
  {
    const InspectionResult clean = InspectState(Dir());
    EXPECT_TRUE(clean.snapshot_present);
    EXPECT_TRUE(clean.journal_present);
    EXPECT_TRUE(clean.snapshot_valid);
    EXPECT_TRUE(clean.journal_valid);
    EXPECT_TRUE(clean.epoch_match);
    EXPECT_TRUE(clean.clean);
    EXPECT_EQ(clean.journal.records, 1u);
  }
  // Tear the journal tail.
  const size_t size = std::filesystem::file_size(Dir() + "/journal.bin");
  std::filesystem::resize_file(Dir() + "/journal.bin", size - 3);
  const InspectionResult torn = InspectState(Dir());
  EXPECT_TRUE(torn.journal_valid);
  EXPECT_FALSE(torn.clean);
  EXPECT_GT(torn.journal.bytes_dropped, 0u);
}

// Every persisted string comes from one request line or one header line,
// so a client whose User-Agent, page path and echoed agent are each longer
// than a short string but within the wire's line limit recovers with the
// other 39 clients, and no snapshot section is dropped.
TEST_F(PersistenceTest, WireLengthStringsSurviveCheckpointAndRestart) {
  constexpr int kClients = 40;
  constexpr int kLongClient = 7;
  const std::string long_agent = "agent-" + std::string(4994, 'a');  // 5,000 bytes.
  const std::string long_path = "/" + std::string(4994, 'p') + ".html";
  ASSERT_EQ(long_agent.size(), 5000u);
  ASSERT_EQ(long_path.size(), 5000u);

  SimClock clock(1000);
  ProxyConfig config;
  config.persistence.state_dir = Dir();
  ProxyServer proxy(config, &clock, [](const Request&) {
    return MakeHtmlResponse("<html><head></head><body><p>hi</p></body></html>");
  });
  for (int i = 0; i < kClients; ++i) {
    const bool long_client = i == kLongClient;
    const std::string agent = long_client ? long_agent : "agent-" + std::to_string(i);
    Request page;
    page.client_ip = IpAddress(kIp1 + static_cast<uint32_t>(i));
    page.time = clock.Now();
    page.headers.Set("User-Agent", agent);
    page.url = Url::Make(config.host, long_client ? long_path : "/index.html");
    const std::string body = proxy.Handle(page).response.body;

    // Run the page's UA-echo script by hand: fetch the stylesheet it
    // writes, with the token it was served and the runtime agent.
    const std::string stem = config.instr_prefix + "ua_";
    const size_t at = body.find(stem);
    ASSERT_NE(at, std::string::npos) << body;
    const size_t token_end = body.find("_'", at + stem.size());
    ASSERT_NE(token_end, std::string::npos) << body;
    const std::string token = body.substr(at + stem.size(), token_end - at - stem.size());
    Request echo = page;
    echo.url = Url::Make(config.host,
                         ProbeUrl(config.instr_prefix, ProbeKind::kUaEcho, token + "_" + agent));
    clock.Advance(10);
    echo.time = clock.Now();
    proxy.Handle(echo);
    clock.Advance(10);
  }
  const SessionKey long_key{IpAddress(kIp1 + kLongClient), long_agent};
  ASSERT_EQ(proxy.sessions().Touch(long_key, clock.Now())->signals().ua_echo_agent, long_agent);
  ASSERT_EQ(proxy.sessions().active_count(), static_cast<size_t>(kClients));
  ASSERT_TRUE(proxy.state_store()->Checkpoint(clock.Now()));
  const std::string before = Fingerprint(proxy.keys(), proxy.sessions());
  ASSERT_NE(before.find(long_path), std::string::npos);

  proxy.SimulateCrashRestart(clock.Now());
  EXPECT_EQ(proxy.state_store()->last_recovery().snapshot_sections_dropped, 0u);
  EXPECT_EQ(proxy.sessions().active_count(), static_cast<size_t>(kClients));
  EXPECT_EQ(Fingerprint(proxy.keys(), proxy.sessions()), before);
  const SessionSignals& recovered = proxy.sessions().Touch(long_key, clock.Now())->signals();
  EXPECT_TRUE(recovered.ExecutedJs());
  EXPECT_EQ(recovered.ua_echo_agent, long_agent);
}

}  // namespace
}  // namespace robodet
