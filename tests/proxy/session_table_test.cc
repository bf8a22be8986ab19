#include "src/proxy/session_table.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

SessionKey Key(uint32_t ip, const std::string& ua = "ua") {
  return SessionKey{IpAddress(ip), ua};
}

TEST(SessionTableTest, TouchCreatesAndReuses) {
  SessionTable table({kHour, 100});
  SessionState* a = table.Touch(Key(1), 0);
  SessionState* b = table.Touch(Key(1), 1000);
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.active_count(), 1u);
  SessionState* c = table.Touch(Key(2), 0);
  EXPECT_NE(a, c);
  EXPECT_EQ(table.active_count(), 2u);
}

TEST(SessionTableTest, DistinctUserAgentsAreDistinctSessions) {
  SessionTable table({kHour, 100});
  SessionState* a = table.Touch(Key(1, "ua1"), 0);
  SessionState* b = table.Touch(Key(1, "ua2"), 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a->id(), b->id());
}

TEST(SessionTableTest, IdleTimeoutSplitsSession) {
  SessionTable table({kHour, 100});
  int closed = 0;
  table.set_on_closed([&closed](std::unique_ptr<SessionState> s) {
    ++closed;
    EXPECT_NE(s, nullptr);
  });
  SessionState* a = table.Touch(Key(1), 0);
  RequestEvent ev;
  a->RecordRequest(0, ev);
  const uint64_t first_id = a->id();
  // Within the timeout: same session.
  SessionState* same = table.Touch(Key(1), kHour);
  EXPECT_EQ(same->id(), first_id);
  same->RecordRequest(kHour, ev);
  // Beyond the timeout: new session, old one closed.
  SessionState* fresh = table.Touch(Key(1), 2 * kHour + kHour + 1);
  EXPECT_NE(fresh->id(), first_id);
  EXPECT_EQ(closed, 1);
}

TEST(SessionTableTest, CloseIdleClosesOnlyStale) {
  SessionTable table({kHour, 100});
  int closed = 0;
  table.set_on_closed([&closed](std::unique_ptr<SessionState>) { ++closed; });
  table.Touch(Key(1), 0);
  table.Touch(Key(2), 30 * kMinute);
  table.CloseIdle(90 * kMinute);  // Key 1 idle 90m > 1h; key 2 idle 60m = 1h.
  EXPECT_EQ(closed, 1);
  EXPECT_EQ(table.active_count(), 1u);
}

TEST(SessionTableTest, CloseAll) {
  SessionTable table({kHour, 100});
  std::vector<uint64_t> closed_ids;
  table.set_on_closed(
      [&closed_ids](std::unique_ptr<SessionState> s) { closed_ids.push_back(s->id()); });
  table.Touch(Key(1), 0);
  table.Touch(Key(2), 0);
  table.Touch(Key(3), 0);
  table.CloseAll();
  EXPECT_EQ(closed_ids.size(), 3u);
  EXPECT_EQ(table.active_count(), 0u);
}

TEST(SessionTableTest, CapacityEvictsStalest) {
  SessionTable table({kHour, 2});
  std::vector<uint64_t> closed_ids;
  table.set_on_closed(
      [&closed_ids](std::unique_ptr<SessionState> s) { closed_ids.push_back(s->id()); });
  SessionState* a = table.Touch(Key(1), 0);
  const uint64_t a_id = a->id();
  table.Touch(Key(2), 1000);
  table.Touch(Key(3), 2000);  // Evicts key 1 (stalest).
  EXPECT_EQ(table.active_count(), 2u);
  ASSERT_EQ(closed_ids.size(), 1u);
  EXPECT_EQ(closed_ids[0], a_id);
}

TEST(SessionTableTest, OpenedCounterCountsCreations) {
  MetricsRegistry registry;
  SessionTable table({kHour, 100});
  table.BindMetrics(registry);
  table.Touch(Key(1), 0);
  table.Touch(Key(1), 0);  // Reuse.
  table.Touch(Key(2), 0);
  EXPECT_EQ(registry.Scrape().CounterValue("robodet_sessions_opened_total"), 2u);
}

}  // namespace
}  // namespace robodet
