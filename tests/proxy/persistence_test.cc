// Crash-recovery round trip for the persistence layer. The core claim: the
// state file recovers the tables to exactly the pre-crash state, a crash
// that tears it at ANY byte — every record boundary and every mid-record
// offset — recovers to the clean prefix of mutations that were fully
// flushed, and a crash at any step of a checkpoint recovers what the
// checkpoint started from, never garbage and never with a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <utility>
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

  static std::string ReadState(const std::string& dir) {
    std::ifstream in(dir + "/state.bin", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  static void WriteState(const std::string& dir, std::string_view bytes) {
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/state.bin", std::ios::binary | std::ios::trunc) << bytes;
  }

  // Copies `from_dir`'s state file to `to_dir`, cut to its first `bytes`.
  static void CopyState(const std::string& from_dir, const std::string& to_dir, size_t bytes) {
    const std::string state = ReadState(from_dir);
    WriteState(to_dir, std::string_view(state).substr(0, std::min(bytes, state.size())));
  }

  // Where each record of a state file starts (past its header), and the
  // file's end.
  static std::vector<size_t> RecordStarts(std::string_view state) {
    std::vector<size_t> starts;
    ByteWriter header;
    persistence::EncodeJournalHeader(&header);
    for (size_t at = header.size(); at < state.size();) {
      starts.push_back(at);
      uint32_t len = 0;
      ByteReader(state.substr(at)).ReadU32(&len);
      at += 8 + len + 4;  // frame_len u32 | len_crc u32 | frame | crc u32
    }
    starts.push_back(state.size());
    return starts;
  }

  std::filesystem::path dir_;
};

// The tentpole scenario: phase A compacted by a checkpoint, phase B
// appended one record per mutation, then a crash at every possible cut of
// the appended records. Each boundary cut recovers the exact live state
// after that many mutations; each mid-record cut recovers the preceding
// boundary's state and reports the torn bytes.
TEST_F(PersistenceTest, RecoverAtEveryJournalBoundary) {
  Rig live(Dir());
  const auto initial = live.store.Recover(0);
  EXPECT_TRUE(initial.cold_start);

  // Phase A: state that the checkpoint compacts.
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
  ASSERT_TRUE(live.store.Checkpoint());
  // Two keys, then one session.
  ASSERT_EQ(InspectState(Dir()).records(), 3u);
  const size_t compacted = 3;
  std::vector<size_t> boundaries{std::filesystem::file_size(Dir() + "/state.bin")};
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
    boundaries.push_back(std::filesystem::file_size(Dir() + "/state.bin"));
    expected.push_back(Fingerprint(live.keys, live.sessions));
  }
  ASSERT_EQ(InspectState(Dir()).records(), compacted + steps.size());

  // Crash at every record boundary: exact replay of the flushed prefix.
  for (size_t i = 0; i < boundaries.size(); ++i) {
    const std::string crash_dir = Dir("boundary_" + std::to_string(i));
    CopyState(Dir(), crash_dir, boundaries[i]);
    Rig recovered(crash_dir);
    const RecoveryReport report = recovered.store.Recover(9000);
    EXPECT_FALSE(report.cold_start);
    EXPECT_EQ(report.journal_records_applied, compacted + i);
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
      EXPECT_EQ(report.journal_records_applied, compacted + i) << "cut " << cut;
      EXPECT_GT(report.journal_bytes_dropped, 0u) << "cut " << cut;
      EXPECT_EQ(Fingerprint(recovered.keys, recovered.sessions), expected[i])
          << "cut " << cut;
      std::filesystem::remove_all(crash_dir);
    }
  }

  // Cut inside the header: nothing is usable, a cold start.
  const size_t header_bytes = RecordStarts(ReadState(Dir())).front();
  for (size_t cut = 0; cut < header_bytes; ++cut) {
    const std::string crash_dir = Dir("hdr_" + std::to_string(cut));
    CopyState(Dir(), crash_dir, cut);
    Rig recovered(crash_dir);
    const RecoveryReport report = recovered.store.Recover(9000);
    EXPECT_TRUE(report.cold_start) << "cut " << cut;
    EXPECT_EQ(recovered.keys.total_entries(), 0u) << "cut " << cut;
    EXPECT_EQ(recovered.sessions.active_count(), 0u) << "cut " << cut;
    std::filesystem::remove_all(crash_dir);
  }
}

// A checkpoint writes state.bin.tmp, renames it over state.bin and then
// appends to it. A crash at each step recovers warm to the live tables as
// the crash left them: with state.bin.tmp torn at its start or its middle,
// or whole but not renamed, from the old state.bin, which recovery's own
// checkpoint then replaces, removing the temporary file; once renamed,
// from the new file, with or without appends after it. Each directory
// then inspects clean.
TEST_F(PersistenceTest, CrashAtEveryCheckpointStepRecoversTheLiveTables) {
  Rig live(Dir());
  live.store.Recover(0);
  live.keys.Record(IpAddress(kIp1), "/a.html", "key-a1", 1000);
  {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp1), "ua-one"}, 1100);
    s->RecordRequest(1100, MakeEvent(ResourceKind::kHtml, 2));
    s->served_links().Insert("http://h.test/one.html");
    live.store.OnSessionUpdated(*s);
  }
  ASSERT_TRUE(live.store.Checkpoint());
  live.keys.Record(IpAddress(kIp2), "/b.html", "key-b1", 2100);
  {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp1), "ua-one"}, 2200);
    s->RecordRequest(2200, MakeEvent(ResourceKind::kImage, 2));
    s->visited_urls().Insert("http://h.test/one.html");
    live.store.OnSessionUpdated(*s);
  }
  const std::string before = Fingerprint(live.keys, live.sessions);
  const std::string old_file = ReadState(Dir());
  // The checkpoint the crash interrupts: two keys and one session.
  ASSERT_TRUE(live.store.Checkpoint());
  const std::string rewritten = ReadState(Dir());
  ASSERT_EQ(RecordStarts(rewritten).size(), 3u + 1);
  // Appends after the rename.
  live.keys.Record(IpAddress(kIp2), "/c.html", "key-c1", 2300);
  EXPECT_TRUE(live.keys.MatchAndConsume(IpAddress(kIp1), "key-a1", 2400));
  const std::string after = Fingerprint(live.keys, live.sessions);
  const std::string appended = ReadState(Dir());
  live.store.OnCrash();

  struct Step {
    std::string name;
    std::string state;
    std::optional<std::string> tmp;
    const std::string* expected;
    size_t records;
  };
  const std::vector<Step> steps = {
      {"tmp_torn_at_0", old_file, rewritten.substr(0, 0), &before, 4},
      {"tmp_torn_at_half", old_file, rewritten.substr(0, rewritten.size() / 2), &before, 4},
      {"tmp_whole", old_file, rewritten, &before, 4},
      {"renamed", rewritten, std::nullopt, &before, 3},
      {"renamed_and_appended", appended, std::nullopt, &after, 5},
  };
  for (const Step& step : steps) {
    const std::string crash_dir = Dir(step.name);
    WriteState(crash_dir, step.state);
    const std::string tmp = crash_dir + "/state.bin.tmp";
    if (step.tmp.has_value()) {
      std::ofstream(tmp, std::ios::binary) << *step.tmp;
    }
    Rig recovered(crash_dir);
    const RecoveryReport report = recovered.store.Recover(9000);
    EXPECT_FALSE(report.cold_start) << step.name;
    EXPECT_EQ(report.journal_records_applied, step.records) << step.name;
    EXPECT_EQ(Fingerprint(recovered.keys, recovered.sessions), *step.expected) << step.name;
    EXPECT_FALSE(std::filesystem::exists(tmp)) << step.name;
    const InspectionResult inspected = InspectState(crash_dir);
    EXPECT_TRUE(inspected.clean) << step.name;
    EXPECT_EQ(inspected.key_issues, recovered.keys.total_entries()) << step.name;
    EXPECT_EQ(inspected.session_updates, 1u) << step.name;
    EXPECT_EQ(inspected.records(), inspected.key_issues + inspected.session_updates)
        << step.name;
  }
}

// A checkpoint whose file cannot be written counts a failure, leaves no
// temporary file, and keeps appending to the old file, so a crash after
// it loses nothing.
TEST_F(PersistenceTest, FailedCheckpointKeepsJournaling) {
  MetricsRegistry registry;
  Rig live(Dir());
  live.store.BindMetrics(registry);
  live.store.Recover(0);
  live.keys.Record(IpAddress(kIp1), "/a.html", "key-a1", 100);
  // A directory where the temporary file goes: the file cannot open.
  const std::string tmp = Dir() + "/state.bin.tmp";
  std::filesystem::create_directory(tmp);
  EXPECT_FALSE(live.store.Checkpoint());
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

// Under a lasting write failure the automatic checkpoint retries once an
// interval, not on every append: with state.bin.tmp blocked by a non-empty
// directory, which the failed checkpoint cannot remove, and an interval of
// 4 records, 20 key issues make 5 attempts and 5 failures. A recovery
// afterwards restores every record.
TEST_F(PersistenceTest, FailedCheckpointRetriesOnceAnInterval) {
  MetricsRegistry registry;
  KeyTable keys(KeyTable::Config{.num_shards = 4});
  SessionTable sessions(SessionTable::Config{.num_shards = 4});
  StateStore store(PersistenceConfig{.state_dir = Dir(), .snapshot_interval_records = 4}, &keys,
                   &sessions);
  keys.set_observer(&store);
  store.BindMetrics(registry);
  store.Recover(0);
  const std::string tmp = Dir() + "/state.bin.tmp";
  std::filesystem::create_directories(tmp + "/blocker");
  for (uint32_t i = 0; i < 20; ++i) {
    keys.Record(IpAddress(kIp1 + i), "/a.html", "key-" + std::to_string(i), 100 + i);
  }
  const RegistrySnapshot scrape = registry.Scrape();
  EXPECT_EQ(scrape.CounterValue("robodet_persistence_checkpoint_failures_total"), 5u);
  // Only the recovery's checkpoint succeeded.
  EXPECT_EQ(scrape.CounterValue("robodet_persistence_checkpoints_total"), 1u);
  EXPECT_EQ(scrape.CounterValue("robodet_persistence_journal_records_total"), 20u);
  const std::string expected = Fingerprint(keys, sessions);
  store.OnCrash();
  keys.set_observer(nullptr);
  std::filesystem::remove_all(tmp);

  Rig recovered(Dir());
  const RecoveryReport report = recovered.store.Recover(400);
  EXPECT_EQ(report.journal_records_applied, 20u);
  EXPECT_EQ(report.key_entries_restored, 20u);
  EXPECT_EQ(Fingerprint(recovered.keys, recovered.sessions), expected);
}

// The salvage rule: a whole frame whose CRC fails costs that record alone,
// and every later record still applies; a torn frame, or a length that
// fails its own CRC, ends the walk. So a flipped byte in the body of the
// second compacted record, or of an appended record, recovers what the
// file without that record recovers, and a flipped length byte or a file
// cut mid-record recovers what the file cut at that record's start does.
TEST_F(PersistenceTest, SalvageDropsOneCorruptRecordAndKeepsTheRest) {
  Rig live(Dir());
  live.store.Recover(0);
  live.keys.Record(IpAddress(kIp1), "/a.html", "key-a1", 1000);
  live.keys.Record(IpAddress(kIp2), "/b.html", "key-b1", 1100);
  {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp1), "ua-one"}, 1200);
    s->RecordRequest(1200, MakeEvent(ResourceKind::kHtml, 2));
    s->served_links().Insert("http://h.test/one.html");
    live.store.OnSessionUpdated(*s);
  }
  ASSERT_TRUE(live.store.Checkpoint());
  live.keys.Record(IpAddress(kIp1), "/c.html", "key-c1", 2100);
  {
    SessionState* s = live.sessions.Touch(SessionKey{IpAddress(kIp2), "ua-two"}, 2200);
    s->RecordRequest(2200, MakeEvent(ResourceKind::kCgi, 4));
    live.store.OnSessionUpdated(*s);
  }
  EXPECT_TRUE(live.keys.MatchAndConsume(IpAddress(kIp2), "key-b1", 2300));
  live.store.OnCrash();
  const std::string state = ReadState(Dir());
  const std::vector<size_t> starts = RecordStarts(state);
  ASSERT_EQ(starts.size(), 6u + 1);  // Three compacted records, three appended.

  auto recover = [this](const std::string& name, std::string_view bytes, std::string* fingerprint) {
    WriteState(Dir(name), bytes);
    Rig rig(Dir(name));
    const RecoveryReport report = rig.store.Recover(9000);
    *fingerprint = Fingerprint(rig.keys, rig.sessions);
    return report;
  };
  // The second compacted record (the second key) and the second appended
  // record (a session update).
  for (const size_t record : {size_t{1}, size_t{4}}) {
    const std::string name = "flip_" + std::to_string(record);
    std::string flipped = state;
    flipped[(starts[record] + starts[record + 1]) / 2] ^= 0x20;
    std::string without = state;
    without.erase(starts[record], starts[record + 1] - starts[record]);
    std::string got;
    std::string want;
    const RecoveryReport report = recover(name, flipped, &got);
    recover(name + "_without", without, &want);
    EXPECT_FALSE(report.cold_start) << name;
    EXPECT_EQ(report.journal_records_applied, 5u) << name;
    EXPECT_EQ(report.journal_records_dropped, 1u) << name;
    EXPECT_EQ(report.journal_bytes_dropped, 0u) << name;
    EXPECT_EQ(got, want) << name;
  }
  // A flipped byte in the second compacted record's length, and one in the
  // second appended record's length CRC: the length fails its check, so
  // the walk ends at that record as at a torn tail, with every earlier
  // record applied.
  for (const auto& [record, offset] : {std::pair<size_t, size_t>{1, 0}, {4, 5}}) {
    const std::string name = "length_" + std::to_string(record);
    std::string flipped = state;
    flipped[starts[record] + offset] ^= 0x01;
    std::string got;
    std::string want;
    const RecoveryReport report = recover(name, flipped, &got);
    recover(name + "_cut", std::string_view(state).substr(0, starts[record]), &want);
    EXPECT_EQ(report.journal_records_applied, record) << name;
    EXPECT_EQ(report.journal_records_dropped, 0u) << name;
    EXPECT_EQ(report.journal_bytes_dropped, state.size() - starts[record]) << name;
    EXPECT_EQ(got, want) << name;
  }
  // Cut in the middle of the second appended record.
  std::string got;
  std::string want;
  const RecoveryReport report =
      recover("torn", std::string_view(state).substr(0, starts[4] + 6), &got);
  recover("cut", std::string_view(state).substr(0, starts[4]), &want);
  EXPECT_EQ(report.journal_records_applied, 4u);
  EXPECT_EQ(report.journal_records_dropped, 0u);
  EXPECT_EQ(report.journal_bytes_dropped, 6u);
  EXPECT_EQ(got, want);
}

// A client chooses its page path, so a record's payload can hold the bytes
// of a whole, CRC-valid record. A corrupted length that, if trusted, would
// make the next frame start at that embedded record must not get it
// applied: the length fails its own CRC and the walk ends there.
TEST_F(PersistenceTest, CorruptLengthCannotLandInsideAPayload) {
  ByteWriter embedded;
  persistence::EncodeKeyIssued({kIp2, "/forged.html", "forged-key", 1000}, &embedded);
  ByteWriter w;
  persistence::EncodeJournalHeader(&w);
  const size_t at = w.size();
  persistence::EncodeKeyIssued({kIp1, embedded.bytes(), "key-a1", 1000}, &w);
  persistence::EncodeKeyIssued({kIp1, "/b.html", "key-b1", 1100}, &w);
  const std::string intact = w.bytes();
  // frame_len | len_crc | type u8 | ip u32 | page path's length u32 | its
  // bytes: a frame length of 5 puts the next frame's start, past the frame
  // and its crc u32, at the embedded record.
  w.PatchU32(at, 5);
  ASSERT_EQ(intact.substr(at + 8 + 1 + 4 + 4, embedded.size()), embedded.bytes());

  WriteState(Dir("intact"), intact);
  Rig clean(Dir("intact"));
  const RecoveryReport clean_report = clean.store.Recover(2000);
  EXPECT_EQ(clean_report.journal_records_applied, 2u);
  EXPECT_EQ(clean_report.key_entries_restored, 2u);
  EXPECT_FALSE(clean.keys.MatchAndConsume(IpAddress(kIp2), "forged-key", 2000));

  WriteState(Dir("corrupt"), w.bytes());
  Rig rig(Dir("corrupt"));
  const RecoveryReport report = rig.store.Recover(2000);
  EXPECT_EQ(report.journal_records_applied, 0u);
  EXPECT_EQ(report.journal_records_dropped, 0u);
  EXPECT_EQ(report.journal_bytes_dropped, intact.size() - at);
  EXPECT_EQ(report.key_entries_restored, 0u);
  EXPECT_FALSE(rig.keys.MatchAndConsume(IpAddress(kIp2), "forged-key", 2000));
}

// A damaged but CRC-valid directory: a compacted session whose runs hold
// repeated hashes and more events and page indices than a session keeps,
// then appended updates marked against the runs as written. Replay appends
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
  ByteWriter journal;
  persistence::EncodeJournalHeader(&journal);
  persistence::EncodeSessionUpdate(fields(300), persistence::RunMarks{}, &journal);
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
  WriteState(dir, journal.bytes());

  Rig recovered(dir);
  const RecoveryReport report = recovered.store.Recover(1000);
  EXPECT_EQ(report.journal_records_applied, 3u);
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

// A corrupt state file degrades to a cold start with metrics, never a
// crash.
TEST_F(PersistenceTest, CorruptStateColdStartsWithMetrics) {
  WriteState(Dir(), "not a state file at all, just hostile bytes \x01\x02\x03");
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

// Format version 1 kept two files, snapshot.bin and journal.bin, tied by a
// generation number in each header. Nothing reads those files: a
// directory that holds only them cold-starts and leaves them as they are,
// and a version-1 journal under the new file's name fails its header
// check.
TEST_F(PersistenceTest, VersionOneDirectoryColdStarts) {
  ByteWriter journal;
  journal.PutRaw(persistence::kJournalMagic);
  journal.PutU32(1);  // version
  journal.PutU64(1);  // generation
  persistence::EncodeKeyIssued({kIp1, "/a.html", "key-a1", 100}, &journal);
  ByteWriter snapshot;
  snapshot.PutRaw(std::string_view("RDSNAP1\0", 8));
  snapshot.PutU32(1);    // version
  snapshot.PutU64(1);    // generation
  snapshot.PutI64(100);  // created_at
  snapshot.PutU32(0);    // key sections
  snapshot.PutU32(0);    // session sections
  std::filesystem::create_directories(Dir());
  std::ofstream(Dir() + "/journal.bin", std::ios::binary) << journal.bytes();
  std::ofstream(Dir() + "/snapshot.bin", std::ios::binary) << snapshot.bytes();
  {
    Rig rig(Dir());
    const RecoveryReport report = rig.store.Recover(200);
    EXPECT_TRUE(report.cold_start);
    EXPECT_EQ(report.journal_records_applied, 0u);
    EXPECT_EQ(rig.keys.total_entries(), 0u);
  }
  std::ifstream in(Dir() + "/journal.bin", std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()),
            journal.bytes());
  EXPECT_TRUE(InspectState(Dir()).clean);  // The recovery's own, empty file.

  WriteState(Dir("renamed"), journal.bytes());
  Rig rig(Dir("renamed"));
  EXPECT_TRUE(rig.store.Recover(200).cold_start);
  EXPECT_EQ(rig.keys.total_entries(), 0u);
}

// InspectState mirrors what the statedump tool prints: clean for a whole
// file, not clean for a torn tail or a missing file.
TEST_F(PersistenceTest, InspectStateReportsCleanAndTorn) {
  EXPECT_FALSE(InspectState(Dir()).present);
  EXPECT_FALSE(InspectState(Dir()).clean);
  Rig live(Dir());
  live.store.Recover(0);
  live.keys.Record(IpAddress(kIp1), "/a.html", "k", 100);
  {
    const InspectionResult clean = InspectState(Dir());
    EXPECT_TRUE(clean.present);
    EXPECT_TRUE(clean.valid);
    EXPECT_TRUE(clean.clean);
    EXPECT_EQ(clean.records(), 1u);
    EXPECT_EQ(clean.key_issues, 1u);
  }
  // Tear the tail.
  const size_t size = std::filesystem::file_size(Dir() + "/state.bin");
  std::filesystem::resize_file(Dir() + "/state.bin", size - 3);
  const InspectionResult torn = InspectState(Dir());
  EXPECT_TRUE(torn.valid);
  EXPECT_FALSE(torn.clean);
  EXPECT_EQ(torn.records(), 0u);
  EXPECT_GT(torn.bytes_dropped, 0u);
}

// Every persisted string comes from one request line or one header line,
// so a client whose User-Agent, page path and echoed agent are each longer
// than a short string but within the wire's line limit recovers with the
// other 39 clients, and no record is dropped.
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
  ASSERT_TRUE(proxy.state_store()->Checkpoint());
  const std::string before = Fingerprint(proxy.keys(), proxy.sessions());
  ASSERT_NE(before.find(long_path), std::string::npos);

  proxy.SimulateCrashRestart(clock.Now());
  EXPECT_EQ(proxy.state_store()->last_recovery().journal_records_dropped, 0u);
  EXPECT_EQ(proxy.sessions().active_count(), static_cast<size_t>(kClients));
  EXPECT_EQ(Fingerprint(proxy.keys(), proxy.sessions()), before);
  const SessionSignals& recovered = proxy.sessions().Touch(long_key, clock.Now())->signals();
  EXPECT_TRUE(recovered.ExecutedJs());
  EXPECT_EQ(recovered.ua_echo_agent, long_agent);
}

}  // namespace
}  // namespace robodet
