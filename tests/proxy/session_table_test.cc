#include "src/proxy/session_table.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

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
  // Key 1 idle 90m > 1h; key 2 idle 60m = 1h.
  for (size_t i = 0; i < table.num_shards(); ++i) {
    table.CloseIdleIncremental(90 * kMinute);
  }
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

TEST(SessionTableTest, EvictionTieGoesToLowestId) {
  // 64 sessions equally stale, spread over the shards: each eviction takes
  // the lowest id left, whatever order the shards hold them in.
  constexpr uint32_t kSessions = 64;
  SessionTable table({kHour, kSessions});
  std::vector<uint64_t> closed_ids;
  table.set_on_closed(
      [&closed_ids](std::unique_ptr<SessionState> s) { closed_ids.push_back(s->id()); });
  std::vector<uint64_t> ids;
  for (uint32_t ip = 1; ip <= kSessions; ++ip) {
    ids.push_back(table.Touch(Key(ip), 5000)->id());
  }
  for (uint32_t ip = 1000; ip < 1008; ++ip) {
    table.Touch(Key(ip), 6000);
  }
  std::sort(ids.begin(), ids.end());
  ids.resize(8);
  EXPECT_EQ(closed_ids, ids);
  EXPECT_EQ(table.active_count(), kSessions);
}

// Workers race Touch against eviction on shared keys and shards; CI runs
// this under TSan. Every opened session is either still active or was
// handed to on_closed exactly once.
TEST(SessionTableTest, ConcurrentTouchAndEvictionKeepCounts) {
  constexpr int kThreads = 4;
  constexpr uint32_t kTouches = 3000;
  MetricsRegistry registry;
  SessionTable table({kHour, 64});
  table.BindMetrics(registry);
  std::atomic<uint64_t> closed{0};
  table.set_on_closed([&closed](std::unique_ptr<SessionState>) { closed.fetch_add(1); });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&table, t] {
      for (uint32_t i = 0; i < kTouches; ++i) {
        // Overlapping key ranges: threads meet on the same keys and shards.
        table.Touch(Key((i * 7 + static_cast<uint32_t>(t) * 13) % 512), static_cast<TimeMs>(i));
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const uint64_t opened = registry.Scrape().CounterValue("robodet_sessions_opened_total");
  EXPECT_GT(closed.load(), 0u);
  EXPECT_EQ(opened, closed.load() + table.active_count());
  table.CloseAll();
  EXPECT_EQ(closed.load(), opened);
  EXPECT_EQ(table.active_count(), 0u);
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
