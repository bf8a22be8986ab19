#include "src/proxy/key_table.h"

#include <gtest/gtest.h>

#include <string>

namespace robodet {
namespace {

TEST(KeyTableTest, RecordAndMatch) {
  KeyTable table(KeyTable::Config{});
  table.Record(IpAddress(1), "/p/1.html", "key-a", 0);
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "key-a", 1000));
}

TEST(KeyTableTest, MatchConsumesEntryPreventingReplay) {
  KeyTable table(KeyTable::Config{});
  table.Record(IpAddress(1), "/p/1.html", "key-a", 0);
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "key-a", 1));
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(1), "key-a", 2));
}

TEST(KeyTableTest, WrongKeyAndWrongIpFail) {
  KeyTable table(KeyTable::Config{});
  table.Record(IpAddress(1), "/p/1.html", "key-a", 0);
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(1), "key-b", 1));
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(2), "key-a", 1));
  // Wrong-key probes must not consume the real entry.
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "key-a", 2));
}

TEST(KeyTableTest, MultipleEntriesPerIp) {
  KeyTable table(KeyTable::Config{});
  table.Record(IpAddress(1), "/p/1.html", "k1", 0);
  table.Record(IpAddress(1), "/p/2.html", "k2", 0);
  table.Record(IpAddress(1), "/p/3.html", "k3", 0);
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "k2", 1));
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "k1", 1));
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "k3", 1));
}

TEST(KeyTableTest, ExpiredKeyDoesNotMatch) {
  KeyTable table(KeyTable::Config{});
  table.Record(IpAddress(1), "/p/1.html", "old", 0);
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(1), "old", kHour + 1));
}

TEST(KeyTableTest, PerIpBoundDropsOldest) {
  KeyTable table(KeyTable::Config{});
  // Twice the per-IP bound of 64: the first 64 fall off.
  for (int i = 0; i < 128; ++i) {
    table.Record(IpAddress(1), "/p", std::string("k").append(std::to_string(i)), i);
  }
  EXPECT_EQ(table.total_entries(), 64u);
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(1), "k63", 200));
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "k64", 200));
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(1), "k127", 200));
}

TEST(KeyTableTest, GlobalBoundRefusesGrowthUntilEntriesExpire) {
  constexpr size_t kMaxTotal = size_t{1} << 20;
  constexpr uint32_t kPerIp = 64;
  KeyTable table(KeyTable::Config{});
  for (uint32_t ip = 1; table.total_entries() < kMaxTotal; ++ip) {
    for (uint32_t k = 0; k < kPerIp; ++k) {
      table.Record(IpAddress(ip), "/p", std::to_string(k), 0);
    }
  }
  ASSERT_EQ(table.total_entries(), kMaxTotal);
  // Full and nothing expired: refused.
  table.Record(IpAddress(0), "/p", "late", 1);
  EXPECT_EQ(table.total_entries(), kMaxTotal);
  EXPECT_FALSE(table.MatchAndConsume(IpAddress(0), "late", 2));
  // Two hours later every entry is expirable, so a new one fits.
  table.Record(IpAddress(0), "/p", "fresh", 2 * kHour);
  EXPECT_EQ(table.total_entries(), 1u);
  EXPECT_TRUE(table.MatchAndConsume(IpAddress(0), "fresh", 2 * kHour + 1));
}

TEST(KeyTableTest, ExpireOldPurges) {
  KeyTable table(KeyTable::Config{});
  table.Record(IpAddress(1), "/p", "a", 0);
  table.Record(IpAddress(2), "/p", "b", 30 * kMinute);
  table.ExpireOld(90 * kMinute);
  EXPECT_EQ(table.total_entries(), 1u);  // b survives (60m old exactly).
}

TEST(KeyTableTest, StatsCount) {
  MetricsRegistry registry;
  KeyTable table(KeyTable::Config{});
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
