#include "src/sim/record_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "src/core/combined_classifier.h"
#include "src/sim/cluster.h"

namespace robodet {
namespace {

class RecordIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("robodet_record_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    sessions_path_ = (dir_ / "sessions.csv").string();
    events_path_ = (dir_ / "events.csv").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static SessionRecord MakeRecord(uint64_t id, bool human) {
    SessionRecord r;
    r.session_id = id;
    r.client_type = human ? "human" : "click_fraud";
    r.truly_human = human;
    r.observation.request_count = 42;
    r.observation.instrumented_pages = 6;
    r.observation.signals.css_probe_at = human ? 3 : 0;
    r.observation.signals.mouse_event_at = human ? 9 : 0;
    r.observation.signals.js_executed_at = human ? 5 : 0;
    r.observation.signals.wrong_key_at = human ? 0 : 7;
    r.observation.signals.ua_echo_agent = human ? "mozilla-5.0firefox" : "";
    r.first_request = 1000;
    r.last_request = 99000;
    RequestEvent e1;
    e1.kind = ResourceKind::kHtml;
    e1.has_referrer = true;
    RequestEvent e2;
    e2.kind = ResourceKind::kCgi;
    e2.status_class = 3;
    e2.unseen_referrer = true;
    r.events = {e1, e2};
    return r;
  }

  std::filesystem::path dir_;
  std::string sessions_path_;
  std::string events_path_;
};

TEST_F(RecordIoTest, RoundTrip) {
  std::vector<SessionRecord> records = {MakeRecord(1, true), MakeRecord(2, false)};
  ASSERT_TRUE(WriteSessionsCsv(sessions_path_, records));
  ASSERT_TRUE(WriteEventsCsv(events_path_, records));

  std::vector<SessionRecord> loaded;
  ASSERT_TRUE(ReadRecordsCsv(sessions_path_, events_path_, &loaded));
  ASSERT_EQ(loaded.size(), 2u);

  for (size_t i = 0; i < loaded.size(); ++i) {
    const SessionRecord& a = records[i];
    const SessionRecord& b = loaded[i];
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.client_type, b.client_type);
    EXPECT_EQ(a.truly_human, b.truly_human);
    EXPECT_EQ(a.request_count(), b.request_count());
    EXPECT_EQ(a.observation.instrumented_pages, b.observation.instrumented_pages);
    EXPECT_EQ(a.signals().css_probe_at, b.signals().css_probe_at);
    EXPECT_EQ(a.signals().mouse_event_at, b.signals().mouse_event_at);
    EXPECT_EQ(a.signals().wrong_key_at, b.signals().wrong_key_at);
    EXPECT_EQ(a.signals().ua_echo_agent, b.signals().ua_echo_agent);
    EXPECT_EQ(a.first_request, b.first_request);
    EXPECT_EQ(a.last_request, b.last_request);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t j = 0; j < a.events.size(); ++j) {
      EXPECT_EQ(a.events[j].kind, b.events[j].kind);
      EXPECT_EQ(a.events[j].status_class, b.events[j].status_class);
      EXPECT_EQ(a.events[j].has_referrer, b.events[j].has_referrer);
      EXPECT_EQ(a.events[j].unseen_referrer, b.events[j].unseen_referrer);
    }
  }
}

TEST_F(RecordIoTest, EmptyRecordsRoundTrip) {
  ASSERT_TRUE(WriteSessionsCsv(sessions_path_, {}));
  ASSERT_TRUE(WriteEventsCsv(events_path_, {}));
  std::vector<SessionRecord> loaded;
  ASSERT_TRUE(ReadRecordsCsv(sessions_path_, events_path_, &loaded));
  EXPECT_TRUE(loaded.empty());
}

TEST_F(RecordIoTest, MissingFilesFail) {
  std::vector<SessionRecord> loaded;
  EXPECT_FALSE(ReadRecordsCsv(sessions_path_ + ".nope", events_path_, &loaded));
}

TEST_F(RecordIoTest, WrongHeaderFails) {
  {
    std::ofstream out(sessions_path_);
    out << "not,the,right,header\n";
  }
  ASSERT_TRUE(WriteEventsCsv(events_path_, {}));
  std::vector<SessionRecord> loaded;
  EXPECT_FALSE(ReadRecordsCsv(sessions_path_, events_path_, &loaded));
}

TEST_F(RecordIoTest, MalformedRowFails) {
  std::vector<SessionRecord> records = {MakeRecord(1, true)};
  ASSERT_TRUE(WriteSessionsCsv(sessions_path_, records));
  ASSERT_TRUE(WriteEventsCsv(events_path_, records));
  {
    std::ofstream out(sessions_path_, std::ios::app);
    out << "garbage,row\n";
  }
  std::vector<SessionRecord> loaded;
  EXPECT_FALSE(ReadRecordsCsv(sessions_path_, events_path_, &loaded));
}

TEST_F(RecordIoTest, EventForUnknownSessionFails) {
  std::vector<SessionRecord> records = {MakeRecord(1, true)};
  ASSERT_TRUE(WriteSessionsCsv(sessions_path_, records));
  records[0].session_id = 999;  // Events now reference a missing session.
  ASSERT_TRUE(WriteEventsCsv(events_path_, records));
  std::vector<SessionRecord> loaded;
  EXPECT_FALSE(ReadRecordsCsv(sessions_path_, events_path_, &loaded));
}

// Every index of the signal table, each set to a distinct nonzero value,
// survives every layer that stores, exports or merges the indices.
TEST_F(RecordIoTest, EverySignalIndexSurvivesEveryLayer) {
  SessionSignals want;
  int value = 2;
  for (const SignalIndex& index : kSignalIndices) {
    want.*index.field = value++;
  }
  want.ua_echo_agent = "mozilla-5.0firefox";
  auto expect_all = [&want](const SessionSignals& got, const char* layer) {
    for (const SignalIndex& index : kSignalIndices) {
      EXPECT_EQ(got.*index.field, want.*index.field) << layer << ": " << index.name;
    }
    EXPECT_EQ(got.ua_echo_agent, want.ua_echo_agent) << layer;
  };

  // State file: an appended session update, recovered after a crash; then
  // the record the recovery's checkpoint compacted it into, recovered
  // after a second crash.
  const SessionKey key{IpAddress(0x0a000001), "ua"};
  auto origin = [](const Request&) { return MakeHtmlResponse("<html></html>"); };
  ProxyConfig durable;
  durable.persistence.state_dir = (dir_ / "state").string();
  ProxyServer proxy(durable, nullptr, origin);
  SessionState* session = proxy.sessions().Touch(key, 100);
  session->signals() = want;
  proxy.state_store()->OnSessionUpdated(*session);
  proxy.SimulateCrashRestart(200);
  EXPECT_EQ(proxy.state_store()->last_recovery().journal_records_applied, 1u);
  expect_all(proxy.sessions().Touch(key, 200)->signals(), "appended record");
  proxy.SimulateCrashRestart(300);
  EXPECT_EQ(proxy.state_store()->last_recovery().journal_records_applied, 1u);
  expect_all(proxy.sessions().Touch(key, 300)->signals(), "compacted record");

  // Sessions CSV. The second record's synthesized input event is its only
  // robot evidence: without that column it would read back human.
  SessionRecord record = MakeRecord(1, false);
  record.observation.signals = want;
  SessionRecord synthesized = MakeRecord(2, true);
  synthesized.observation.signals.unattested_event_at = 11;
  const CombinedClassifier classifier;
  ASSERT_EQ(classifier.ClassifyOnline(synthesized.observation).verdict, Verdict::kRobot);
  ASSERT_TRUE(WriteSessionsCsv(sessions_path_, {record, synthesized}));
  ASSERT_TRUE(WriteEventsCsv(events_path_, {record, synthesized}));
  std::vector<SessionRecord> loaded;
  ASSERT_TRUE(ReadRecordsCsv(sessions_path_, events_path_, &loaded));
  ASSERT_EQ(loaded.size(), 2u);
  expect_all(loaded[0].signals(), "csv");
  EXPECT_EQ(classifier.ClassifyOnline(loaded[1].observation).verdict, Verdict::kRobot);

  // Cluster merge: the earliest index any node saw.
  SimClock clock;
  ProxyCluster::Config two_nodes;
  two_nodes.nodes = 2;
  ProxyCluster cluster(two_nodes, ProxyConfig{}, &clock, origin, 1);
  cluster.node(0).sessions().Touch(key, 100)->signals() = want;
  SessionSignals later = want;
  for (const SignalIndex& index : kSignalIndices) {
    later.*index.field += 50;
  }
  cluster.node(1).sessions().Touch(key, 100)->signals() = later;
  expect_all(cluster.CombinedSignalsFor(key.ip, key.user_agent, 100), "cluster");
}

TEST_F(RecordIoTest, UnwritablePathFails) {
  EXPECT_FALSE(WriteSessionsCsv("/no/such/dir/sessions.csv", {}));
  EXPECT_FALSE(WriteEventsCsv("/no/such/dir/events.csv", {}));
}

}  // namespace
}  // namespace robodet
