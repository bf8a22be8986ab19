#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace robodet {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformU64ZeroBound) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformU64(0), 0u);
}

class UniformBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniformBoundTest, StaysBelowBound) {
  Rng rng(99);
  const uint64_t bound = GetParam();
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.UniformU64(bound), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, UniformBoundTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 10u, 100u, 1000u, 1u << 20,
                                           uint64_t{1} << 40));

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Exponential(5.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.25);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(29);
  int rank0 = 0;
  int rank_last = 0;
  const size_t n = 50;
  for (int i = 0; i < 20000; ++i) {
    const size_t r = rng.Zipf(n, 1.0);
    ASSERT_LT(r, n);
    rank0 += r == 0 ? 1 : 0;
    rank_last += r == n - 1 ? 1 : 0;
  }
  EXPECT_GT(rank0, 10 * std::max(rank_last, 1));
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(31);
  std::array<int, 10> counts{};
  for (int i = 0; i < 50000; ++i) {
    ++counts[rng.Zipf(10, 0.0)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 50000.0, 0.1, 0.02);
  }
}

TEST(RngTest, ZipfHandlesTrivialSizes) {
  Rng rng(37);
  EXPECT_EQ(rng.Zipf(0, 1.0), 0u);
  EXPECT_EQ(rng.Zipf(1, 1.0), 0u);
}

TEST(RngTest, HexKey128Format) {
  Rng rng(43);
  const std::string key = rng.HexKey128();
  EXPECT_EQ(key.size(), 32u);
  for (char c : key) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(RngTest, HexKey128Unique) {
  Rng rng(47);
  std::set<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.insert(rng.HexKey128());
  }
  EXPECT_EQ(keys.size(), 1000u);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(53);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) {
    const size_t idx = rng.WeightedIndex(weights);
    ASSERT_LT(idx, 3u);
    ++counts[idx];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, WeightedIndexDegenerate) {
  Rng rng(59);
  EXPECT_EQ(rng.WeightedIndex({}), 0u);
  EXPECT_EQ(rng.WeightedIndex({0.0, 0.0}), 2u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(61);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(67);
  Rng child = parent.Fork();
  // Advancing the child must not affect the parent's future values.
  Rng parent_copy(67);
  parent_copy.Fork();
  for (int i = 0; i < 100; ++i) {
    child.NextU64();
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(parent.NextU64(), parent_copy.NextU64());
  }
}

}  // namespace
}  // namespace robodet
