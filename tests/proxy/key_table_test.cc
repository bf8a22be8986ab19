#include "src/proxy/key_table.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

TEST(KeyTableTest, RecordAndMatch) {
  KeyTable table({64, 1000, kHour});
  table.Record(IpAddress(1), "/p/1.html", "key-a", 0);
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "key-a", 1000));
}

TEST(KeyTableTest, MatchConsumesEntryPreventingReplay) {
  KeyTable table({64, 1000, kHour});
  table.Record(IpAddress(1), "/p/1.html", "key-a", 0);
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "key-a", 1));
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(1), "key-a", 2));
}

TEST(KeyTableTest, WrongKeyAndWrongIpFail) {
  KeyTable table({64, 1000, kHour});
  table.Record(IpAddress(1), "/p/1.html", "key-a", 0);
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(1), "key-b", 1));
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(2), "key-a", 1));
  // Wrong-key probes must not consume the real entry.
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "key-a", 2));
}

TEST(KeyTableTest, MultipleEntriesPerIp) {
  KeyTable table({64, 1000, kHour});
  table.Record(IpAddress(1), "/p/1.html", "k1", 0);
  table.Record(IpAddress(1), "/p/2.html", "k2", 0);
  table.Record(IpAddress(1), "/p/3.html", "k3", 0);
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "k2", 1));
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "k1", 1));
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "k3", 1));
}

TEST(KeyTableTest, ExpiredKeyDoesNotMatch) {
  KeyTable table({64, 1000, kHour});
  table.Record(IpAddress(1), "/p/1.html", "old", 0);
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(1), "old", kHour + 1));
}

TEST(KeyTableTest, PerIpBoundDropsOldest) {
  KeyTable table({4, 1000, kHour});
  for (int i = 0; i < 8; ++i) {
    table.Record(IpAddress(1), "/p", "k" + std::to_string(i), i);
  }
  EXPECT_EQ(table.total_entries(), 4u);
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(1), "k0", 10));
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "k7", 10));
}

TEST(KeyTableTest, GlobalBoundRefusesGrowthWhenNothingExpired) {
  KeyTable table({64, 3, kHour});
  table.Record(IpAddress(1), "/p", "a", 0);
  table.Record(IpAddress(2), "/p", "b", 0);
  table.Record(IpAddress(3), "/p", "c", 0);
  table.Record(IpAddress(4), "/p", "d", 0);  // Refused: full, nothing expired.
  EXPECT_EQ(table.total_entries(), 3u);
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(4), "d", 1));
}

TEST(KeyTableTest, GlobalBoundRecoversAfterExpiry) {
  KeyTable table({64, 2, kHour});
  table.Record(IpAddress(1), "/p", "a", 0);
  table.Record(IpAddress(2), "/p", "b", 0);
  // An hour later the old entries are expirable, so new ones fit.
  table.Record(IpAddress(3), "/p", "c", 2 * kHour);
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(3), "c", 2 * kHour + 1));
}

TEST(KeyTableTest, ExpireOldPurges) {
  KeyTable table({64, 1000, kHour});
  table.Record(IpAddress(1), "/p", "a", 0);
  table.Record(IpAddress(2), "/p", "b", 30 * kMinute);
  table.ExpireOld(90 * kMinute);
  EXPECT_EQ(table.total_entries(), 1u);  // b survives (60m old exactly).
}

TEST(KeyTableTest, StatsCount) {
  MetricsRegistry registry;
  KeyTable table({64, 1000, kHour});
  table.BindMetrics(registry);
  table.Record(IpAddress(1), "/p", "a", 0);
  table.MatchAndConsume(IpAddress(1), "a", 1);
  table.MatchAndConsume(IpAddress(1), "zzz", 1);
  const RegistrySnapshot snapshot = registry.Scrape();
  EXPECT_EQ(snapshot.CounterValue("robodet_key_table_issued_total"), 1u);
  EXPECT_EQ(snapshot.CounterValue("robodet_key_table_matched_total"), 1u);
  EXPECT_EQ(snapshot.CounterValue("robodet_key_table_mismatched_total"), 1u);
}

}  // namespace
}  // namespace robodet
