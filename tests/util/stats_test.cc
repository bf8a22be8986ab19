#include "src/util/stats.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_EQ(s.mean(), 42.0);
}

TEST(EmpiricalCdfTest, QuantileNearestRank) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(static_cast<double>(i));
  }
  EXPECT_EQ(cdf.Quantile(0.5), 50.0);
  EXPECT_EQ(cdf.Quantile(0.95), 95.0);
  EXPECT_EQ(cdf.Quantile(1.0), 100.0);
  EXPECT_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_EQ(cdf.Quantile(0.01), 1.0);
}

TEST(EmpiricalCdfTest, EmptyQuantileIsZero) {
  EmpiricalCdf cdf;
  EXPECT_EQ(cdf.Quantile(0.5), 0.0);
  EXPECT_EQ(cdf.FractionAtOrBelow(1.0), 0.0);
}

TEST(EmpiricalCdfTest, FractionAtOrBelow) {
  EmpiricalCdf cdf;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    cdf.Add(v);
  }
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(4.0), 1.0);
}

TEST(EmpiricalCdfTest, InterleavedAddAndQuery) {
  EmpiricalCdf cdf;
  cdf.Add(10.0);
  EXPECT_EQ(cdf.Quantile(0.5), 10.0);
  cdf.Add(1.0);
  EXPECT_EQ(cdf.Quantile(0.5), 1.0);  // Re-sorts after insertion.
  EXPECT_EQ(cdf.Quantile(1.0), 10.0);
}

TEST(FormatPercentTest, Formats) {
  EXPECT_EQ(FormatPercent(0.289), "28.9%");
  EXPECT_EQ(FormatPercent(1.0), "100.0%");
  EXPECT_EQ(FormatPercent(0.024, 1), "2.4%");
  EXPECT_EQ(FormatPercent(0.12345, 2), "12.35%");
}

}  // namespace
}  // namespace robodet
