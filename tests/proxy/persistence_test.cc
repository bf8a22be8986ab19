// Crash-recovery round trip for the persistence layer. The core claim:
// snapshot + journal recover the tables to exactly the pre-crash state,
// and a crash that tears the journal at ANY byte — every record boundary
// and every mid-record offset — recovers to the clean prefix of mutations
// that were fully flushed, never to garbage and never with a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
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
