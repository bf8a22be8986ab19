// The state store seen from a durable proxy. A fixed-seed proxy with a
// state directory serves a fixed sequence of site pages (each followed by
// its beacon-script fetch, and for some clients the beacon image and the
// CSS probe).
//
// StateBytesTest is the byte-identity guard for the persistence codec: the
// run takes one explicit checkpoint midway, serves more after an idle gap
// that splits every session and expires every older key, and then
// restarts from its directory. It pins digests of state.bin right after
// the checkpoint, before the restart, and as the recovery checkpoint
// rewrites it. The expected digests are constants: any change to the
// bytes the codec writes for the same state shows up here, and such a
// change would make every existing state directory cold-start.
//
// PersistenceStagesTest checks that the journal-append and checkpoint
// histograms time exactly what the journal-record and checkpoint counters
// count. KeyReplayTest checks that replay consumes a repeated key the way
// the key table does, keeps an evicted key evicted, and counts the entries
// the table keeps.
// ConcurrentJournalTest journals from four threads through one store.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/js/generator.h"
#include "src/proxy/persistence/format.h"
#include "src/proxy/persistence/state_store.h"
#include "src/proxy/proxy_server.h"
#include "src/site/origin_server.h"
#include "src/util/binio.h"
#include "src/util/hash.h"
#include "tests/proxy/persistence_test_util.h"

namespace robodet {
namespace {

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

uint64_t FileDigest(const std::string& path) {
  const std::string bytes = FileBytes(path);
  return HashCombine(Fnv1a(bytes), bytes.size());
}

class DurableProxyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("robodet_state_store_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    SiteConfig site_config;
    site_config.num_pages = 24;
    Rng site_rng(11);
    site_ = std::make_unique<SiteModel>(SiteModel::Generate(site_config, site_rng));
    origin_ = std::make_unique<OriginServer>(site_.get());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void StartProxy(uint64_t snapshot_interval_records) {
    config_.host = site_->host();
    config_.persistence.state_dir = dir_.string();
    config_.persistence.snapshot_interval_records = snapshot_interval_records;
    proxy_ = std::make_unique<ProxyServer>(
        config_, &clock_, [this](const Request& r) { return origin_->Handle(r); }, 1234);
  }

  std::string Get(const std::string& path_or_url, size_t client) {
    Request r;
    r.time = clock_.Now();
    r.client_ip = IpAddress(0x0a000001u + static_cast<uint32_t>(client));
    if (path_or_url.rfind("http", 0) == 0) {
      r.url = *Url::Parse(path_or_url);
    } else {
      r.url = Url::Make(site_->host(), path_or_url);
    }
    r.headers.Set("User-Agent", kAgents[client]);
    clock_.Advance(100);
    return proxy_->Handle(r).response.body;
  }

  // Client 0 runs the beacon script and fires the real beacon, client 1
  // fetches the CSS probe, the others fetch only pages and scripts.
  void ServeRound(size_t round) {
    for (size_t i = 0; i < site_->page_count(); ++i) {
      const size_t client = (i + round) % kAgents.size();
      const PageId id = static_cast<PageId>((i * 7 + round * 5) % site_->page_count());
      const std::string body = Get(site_->page(id).path, client);
      const std::string script_stem = "/__rd/js_";
      const size_t at = body.find(script_stem);
      if (at == std::string::npos) {
        continue;
      }
      const size_t start = body.rfind('"', at) + 1;
      const size_t end = body.find('"', at);
      Get(body.substr(start, end - start), client);
      if (client == 0) {
        const size_t token_at = at + script_stem.size();
        const std::string token = body.substr(token_at, body.find(".js", token_at) - token_at);
        std::string real_key;
        (void)proxy_->BuildBeaconForToken(token, &real_key);
        Get(ProbeUrl(config_.instr_prefix, ProbeKind::kBeaconImage, real_key), client);
      }
      const size_t css_at = body.find("/__rd/cp_");
      if (client == 1 && css_at != std::string::npos) {
        const size_t css_start = body.rfind('"', css_at) + 1;
        Get(body.substr(css_start, body.find('"', css_at) - css_start), client);
      }
    }
  }

  const std::vector<std::string> kAgents = {
      "Mozilla/5.0 (X11; Linux) Gecko/20060101 Firefox/1.5",
      "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)",
      "Wget/1.10.2",
      "Opera/9.00 (Windows NT 5.1; U; en)",
  };
  std::filesystem::path dir_;
  std::unique_ptr<SiteModel> site_;
  std::unique_ptr<OriginServer> origin_;
  ProxyConfig config_;
  SimClock clock_{5000};
  std::unique_ptr<ProxyServer> proxy_;
};

using StateBytesTest = DurableProxyTest;

TEST_F(StateBytesTest, StateFileMatchesPinnedDigests) {
  // Explicit checkpoints only, so the run controls when the file is
  // rewritten.
  StartProxy(/*snapshot_interval_records=*/0);
  // Right after a checkpoint the file holds one key issue per live key and
  // one session update per live session, and nothing else.
  auto expect_compacted = [this](const char* when) {
    const InspectionResult compacted = InspectState(dir_.string());
    EXPECT_TRUE(compacted.clean) << when;
    EXPECT_EQ(compacted.key_issues, proxy_->keys().total_entries()) << when;
    EXPECT_EQ(compacted.session_updates, proxy_->sessions().active_count()) << when;
    EXPECT_EQ(compacted.records(), compacted.key_issues + compacted.session_updates) << when;
  };
  ServeRound(0);
  ServeRound(1);
  ASSERT_TRUE(proxy_->state_store()->Checkpoint());
  expect_compacted("checkpoint");
  const uint64_t checkpointed = FileDigest(proxy_->state_store()->state_path());
  ServeRound(2);
  // An idle gap past the session timeout: round 3 splits every session,
  // which appends the closes.
  clock_.Advance(2 * kHour);
  ServeRound(3);

  const uint64_t state = FileDigest(proxy_->state_store()->state_path());
  // The file holds every record type the codec writes.
  const InspectionResult inspected = InspectState(dir_.string());
  ASSERT_TRUE(inspected.clean);
  EXPECT_GT(inspected.key_issues, 0u);
  EXPECT_GT(inspected.key_consumes, 0u);
  EXPECT_GT(inspected.session_updates, 0u);
  EXPECT_GT(inspected.session_closes, 0u);
  const size_t live_keys = proxy_->keys().total_entries();
  proxy_->SimulateCrashRestart(clock_.Now());
  const RecoveryReport& rep = proxy_->state_store()->last_recovery();
  EXPECT_FALSE(rep.cold_start);
  EXPECT_EQ(rep.journal_records_applied, inspected.records());
  EXPECT_GT(rep.sessions_restored, 0u);
  EXPECT_GT(rep.key_entries_restored, 0u);
  // Round 3's issues expired each client's older keys in the live table;
  // replay expires them the same way.
  EXPECT_EQ(rep.key_entries_restored, live_keys);
  expect_compacted("recovery");
  const uint64_t recovered = FileDigest(proxy_->state_store()->state_path());

  EXPECT_EQ(checkpointed, 0x61fa644e63f28c41ULL) << std::hex << "checkpointed digest 0x" << checkpointed;
  EXPECT_EQ(state, 0x40dadfe8a91ebf55ULL) << std::hex << "state digest 0x" << state;
  EXPECT_EQ(recovered, 0x24e464878b426abbULL) << std::hex << "recovered digest 0x" << recovered;
}

using PersistenceStagesTest = DurableProxyTest;

TEST_F(PersistenceStagesTest, StageHistogramsCountWhatTheCountersCount) {
  // A small interval, so the journal trigger checkpoints mid-round too.
  StartProxy(/*snapshot_interval_records=*/40);
  auto stages = [this] {
    const RegistrySnapshot s = proxy_->metrics().Scrape();
    const MetricSnapshot* append = s.Find("robodet_journal_append_duration_us");
    const MetricSnapshot* checkpoint = s.Find("robodet_checkpoint_duration_us");
    EXPECT_NE(append, nullptr);
    EXPECT_NE(checkpoint, nullptr);
    return std::vector<uint64_t>{
        append == nullptr ? 0 : append->histogram.count,
        s.CounterValue("robodet_persistence_journal_records_total"),
        checkpoint == nullptr ? 0 : checkpoint->histogram.count,
        s.CounterValue("robodet_persistence_checkpoints_total")};
  };
  const std::vector<uint64_t> before = stages();
  ServeRound(0);
  ServeRound(1);
  ASSERT_TRUE(proxy_->state_store()->Checkpoint());
  ServeRound(2);
  proxy_->SimulateCrashRestart(clock_.Now());
  ServeRound(3);
  const std::vector<uint64_t> after = stages();

  const uint64_t appends = after[0] - before[0];
  const uint64_t records = after[1] - before[1];
  const uint64_t checkpoint_obs = after[2] - before[2];
  const uint64_t checkpoints = after[3] - before[3];
  EXPECT_EQ(appends, records);
  EXPECT_EQ(checkpoint_obs, checkpoints);
  EXPECT_GT(records, 40u);
  // Interval triggers, the explicit one and the recovery checkpoint.
  EXPECT_GE(checkpoints, 3u);
}

// The key table keeps every entry it is given, so one (ip, key) recorded
// twice is held twice. A match consumes the oldest entry; replay must leave
// the same entry live as the table did.
TEST(KeyReplayTest, RepeatedKeyRecoversToTheTablesEntries) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("robodet_key_replay_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const IpAddress ip(0x0a000001);
  auto entries = [](KeyTable& keys) {
    std::vector<std::string> out;
    for (size_t i = 0; i < keys.num_shards(); ++i) {
      for (const KeyTable::ExportedEntry& e : keys.ExportShard(i)) {
        out.push_back(e.page_path + " " + e.key + " " + std::to_string(e.issued_at));
      }
    }
    return out;
  };
  const PersistenceConfig config{.state_dir = dir.string(), .snapshot_interval_records = 0};
  std::vector<std::string> live;
  {
    KeyTable keys(KeyTable::Config{});
    SessionTable sessions(SessionTable::Config{});
    StateStore store(config, &keys, &sessions);
    keys.set_observer(&store);
    store.Recover(0);
    keys.Record(ip, "/a.html", "k1", 10);
    keys.Record(ip, "/b.html", "k1", 10);
    ASSERT_TRUE(store.Checkpoint());
    EXPECT_TRUE(keys.MatchAndConsume(ip, "k1", 30));  // Consumes /a.html.
    keys.Record(ip, "/c.html", "k1", 40);
    EXPECT_TRUE(keys.MatchAndConsume(ip, "k1", 50));  // Consumes /b.html.
    live = entries(keys);
    ASSERT_EQ(live, std::vector<std::string>{"/c.html k1 40"});
    store.OnCrash();
  }
  KeyTable keys(KeyTable::Config{});
  SessionTable sessions(SessionTable::Config{});
  StateStore store(config, &keys, &sessions);
  const RecoveryReport rep = store.Recover(60);
  // The checkpoint's two key issues, then three appended records.
  EXPECT_EQ(rep.journal_records_applied, 5u);
  EXPECT_EQ(entries(keys), live);
  std::filesystem::remove_all(dir);
}

// The table evicts an IP's oldest key at its per-IP bound of 64 and
// journals no record of it. Replay applies the issues and consumes in
// order through the table's own eviction, so 65 issues and a consume of
// the second key recover to keys 3-65, as the table held them, and the
// evicted first key stays gone: its beacon must read as a wrong key, not
// a mouse event. The same holds with the first 40 issues compacted by a
// checkpoint.
TEST(KeyReplayTest, EvictedKeyStaysEvicted) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("robodet_key_evicted_" + std::to_string(::getpid()));
  const IpAddress ip(0x0a000003);
  auto entries = [](KeyTable& keys) {
    std::vector<std::string> out;
    for (size_t i = 0; i < keys.num_shards(); ++i) {
      for (const KeyTable::ExportedEntry& e : keys.ExportShard(i)) {
        out.push_back(e.page_path + " " + e.key + " " + std::to_string(e.issued_at));
      }
    }
    return out;
  };
  const PersistenceConfig config{.state_dir = dir.string(), .snapshot_interval_records = 0};
  for (const int checkpoint_after : {0, 40}) {
    std::filesystem::remove_all(dir);
    std::vector<std::string> live;
    {
      KeyTable keys(KeyTable::Config{});
      SessionTable sessions(SessionTable::Config{});
      StateStore store(config, &keys, &sessions);
      keys.set_observer(&store);
      store.Recover(0);
      for (int i = 1; i <= 65; ++i) {
        const std::string n = std::to_string(i);
        keys.Record(ip, "/p/" + n + ".html", "k" + n, 10 + i);
        if (i == checkpoint_after) {
          ASSERT_TRUE(store.Checkpoint());
        }
      }
      EXPECT_TRUE(keys.MatchAndConsume(ip, "k2", 100));
      live = entries(keys);
      ASSERT_EQ(live.size(), 63u);
      ASSERT_EQ(live.front(), "/p/3.html k3 13");
      store.OnCrash();
      keys.set_observer(nullptr);
    }
    KeyTable keys(KeyTable::Config{});
    SessionTable sessions(SessionTable::Config{});
    StateStore store(config, &keys, &sessions);
    const RecoveryReport rep = store.Recover(200);
    EXPECT_EQ(rep.key_entries_restored, 63u) << "checkpoint after " << checkpoint_after;
    EXPECT_EQ(entries(keys), live) << "checkpoint after " << checkpoint_after;
    EXPECT_FALSE(keys.MatchAndConsume(ip, "k1", 300)) << "checkpoint after " << checkpoint_after;
  }
  std::filesystem::remove_all(dir);
}

// The journal records issues, not the table's evictions, so one IP that
// was issued more keys than the table's per-IP bound of 64 replays them
// all; the table keeps the newest 64, and recovery reports those.
TEST(KeyReplayTest, RecoveryCountsTheEntriesTheTableKeeps) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("robodet_key_count_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const IpAddress ip(0x0a000002);
  const PersistenceConfig config{.state_dir = dir.string(), .snapshot_interval_records = 0};
  {
    KeyTable keys(KeyTable::Config{});
    SessionTable sessions(SessionTable::Config{});
    StateStore store(config, &keys, &sessions);
    keys.set_observer(&store);
    store.Recover(0);
    for (int i = 0; i < 100; ++i) {
      keys.Record(ip, std::string("/p/").append(std::to_string(i)).append(".html"),
                  std::string("k").append(std::to_string(i)), 10 + i);
    }
    ASSERT_EQ(keys.total_entries(), 64u);
    store.OnCrash();
  }
  MetricsRegistry registry;
  KeyTable keys(KeyTable::Config{});
  keys.BindMetrics(registry);
  SessionTable sessions(SessionTable::Config{});
  StateStore store(config, &keys, &sessions);
  store.BindMetrics(registry);
  const RecoveryReport rep = store.Recover(200);
  EXPECT_EQ(rep.journal_records_applied, 100u);
  EXPECT_EQ(rep.key_entries_restored, 64u);
  EXPECT_EQ(keys.total_entries(), 64u);
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* gauge = snapshot.Find("robodet_key_table_entries");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(snapshot.CounterValue("robodet_recovery_key_entries_restored_total"),
            static_cast<uint64_t>(gauge->gauge));
  // The oldest issues fell off; the newest survived.
  EXPECT_FALSE(keys.MatchAndConsume(ip, "k35", 300));
  EXPECT_TRUE(keys.MatchAndConsume(ip, "k36", 300));
  std::filesystem::remove_all(dir);
}

// Four threads journal through one store at once, with no checkpoints:
// each issues and consumes beacon keys through the key table, and updates
// and then closes sessions it built before it started. Every record is
// encoded in the store's one reused buffer, so the journal must decode to
// exactly the records each thread appended, in the order it appended them.
TEST(ConcurrentJournalTest, FourThreadsDecodeToTheirRecords) {
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 6;
  constexpr int kRequests = 12;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("robodet_concurrent_journal_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  KeyTable keys(KeyTable::Config{});
  SessionTable sessions(SessionTable::Config{});
  StateStore store(PersistenceConfig{.state_dir = dir.string(), .snapshot_interval_records = 0},
                   &keys, &sessions);
  keys.set_observer(&store);
  store.Recover(0);

  auto thread_ip = [](int t) { return IpAddress(0x0a000000u + static_cast<uint32_t>(t)); };
  auto key_name = [](uint64_t session, int request) {
    return std::string("k")
        .append(std::to_string(session))
        .append("-")
        .append(std::to_string(request));
  };
  std::vector<std::vector<std::unique_ptr<SessionState>>> owned(kThreads);
  std::vector<std::vector<std::string>> want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    const SharedUserAgent agent("agent/" + std::to_string(t));
    for (int j = 0; j < kSessionsPerThread; ++j) {
      const uint64_t id = 1 + static_cast<uint64_t>(t * kSessionsPerThread + j);
      owned[t].push_back(std::make_unique<SessionState>(id, thread_ip(t), agent, 0));
      for (int r = 0; r < kRequests; ++r) {
        want[t].push_back("issue " + key_name(id, r));
        want[t].push_back("update " + std::to_string(id) + " " + std::to_string(r + 1) + " " +
                          std::to_string(r));
        want[t].push_back("consume " + key_name(id, r));
      }
      want[t].push_back("close " + std::to_string(id));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const std::unique_ptr<SessionState>& s : owned[t]) {
        for (int r = 0; r < kRequests; ++r) {
          const std::string key = key_name(s->id(), r);
          keys.Record(thread_ip(t), "/p/" + std::to_string(r) + ".html", key, r);
          RequestEvent event;
          event.kind = ResourceKind::kHtml;
          s->RecordRequest(100 * r, event);
          s->visited_urls().InsertHash(s->id() * 1000 + static_cast<uint64_t>(r));
          store.OnSessionUpdated(*s);
          EXPECT_TRUE(keys.MatchAndConsume(thread_ip(t), key, r));
        }
        store.OnSessionClosed(*s);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  std::ifstream journal_in(store.state_path(), std::ios::binary);
  persistence::JournalReader reader;
  ASSERT_TRUE(reader.Open(&journal_in));
  std::vector<std::vector<std::string>> got(kThreads);
  std::map<uint64_t, persistence::SessionImage> images;
  auto thread_of_session = [](uint64_t id) { return static_cast<int>((id - 1) / kSessionsPerThread); };
  persistence::JournalRecord rec;
  while (reader.Next(&rec)) {
    switch (rec.type) {
      case persistence::JournalRecordType::kKeyIssued:
        got[rec.key.ip - thread_ip(0).value()].push_back("issue " + rec.key.key);
        break;
      case persistence::JournalRecordType::kKeyConsumed:
        got[rec.key.ip - thread_ip(0).value()].push_back("consume " + rec.key.key);
        break;
      case persistence::JournalRecordType::kSessionUpdate: {
        const persistence::SessionImage& d = rec.update.delta;
        got[thread_of_session(d.id)].push_back(
            "update " + std::to_string(d.id) + " " + std::to_string(d.request_count) + " " +
            std::to_string(rec.update.before.events));
        persistence::ApplySessionUpdate(rec.update, &images[d.id]);
        break;
      }
      case persistence::JournalRecordType::kSessionClosed:
        got[thread_of_session(rec.session_id)].push_back("close " +
                                                         std::to_string(rec.session_id));
        break;
    }
  }
  EXPECT_EQ(reader.records_dropped(), 0u);
  EXPECT_EQ(reader.bytes_dropped(), 0u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], want[t]) << "thread " << t;
    for (const std::unique_ptr<SessionState>& s : owned[t]) {
      const persistence::SessionImage& img = images[s->id()];
      EXPECT_EQ(img.events.size(), s->events().size());
      const std::span<const uint64_t> visited = s->visited_urls().ordered_hashes();
      EXPECT_EQ(img.visited_urls, std::vector<uint64_t>(visited.begin(), visited.end()));
    }
  }
  keys.set_observer(nullptr);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace robodet
