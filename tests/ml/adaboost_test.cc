#include "src/ml/adaboost.h"

#include <gtest/gtest.h>

#include "src/ml/metrics.h"
#include "src/util/rng.h"
#include "tests/ml/gaussian.h"

namespace robodet {
namespace {

// Synthetic corpus: robots have high CGI% and low image%, humans the
// reverse, with `noise` controlling class overlap.
Dataset MakeCorpus(size_t n, double noise, uint64_t seed) {
  Dataset data;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Example e;
    const bool robot = i % 2 == 0;
    e.label = robot ? kLabelRobot : kLabelHuman;
    const double cgi = robot ? 0.7 : 0.1;
    const double img = robot ? 0.05 : 0.5;
    e.x[static_cast<size_t>(FeatureId::kCgiPct)] =
        std::clamp(cgi + Gaussian(rng, 0.0, noise), 0.0, 1.0);
    e.x[static_cast<size_t>(FeatureId::kImagePct)] =
        std::clamp(img + Gaussian(rng, 0.0, noise), 0.0, 1.0);
    e.x[static_cast<size_t>(FeatureId::kHtmlPct)] = rng.UniformDouble();  // Irrelevant.
    data.examples.push_back(e);
  }
  return data;
}

TEST(AdaBoostTest, LearnsSeparableData) {
  const Dataset data = MakeCorpus(400, 0.01, 1);
  AdaBoost model;
  model.Train(data);
  const ConfusionMatrix cm =
      Evaluate(data, [&model](const FeatureVector& x) { return model.Predict(x); });
  EXPECT_EQ(cm.Accuracy(), 1.0);
}

TEST(AdaBoostTest, HandlesNoisyData) {
  const Dataset train = MakeCorpus(2000, 0.25, 2);
  const Dataset test = MakeCorpus(2000, 0.25, 3);
  AdaBoost model(AdaBoost::Config{200});
  model.Train(train);
  const ConfusionMatrix cm =
      Evaluate(test, [&model](const FeatureVector& x) { return model.Predict(x); });
  EXPECT_GT(cm.Accuracy(), 0.85);
}

TEST(AdaBoostTest, ImportanceConcentratesOnInformativeFeatures) {
  const Dataset data = MakeCorpus(2000, 0.2, 4);
  AdaBoost model;
  model.Train(data);
  const auto importance = model.FeatureImportance();
  const double cgi = importance[static_cast<size_t>(FeatureId::kCgiPct)];
  const double img = importance[static_cast<size_t>(FeatureId::kImagePct)];
  const double noise = importance[static_cast<size_t>(FeatureId::kHtmlPct)];
  EXPECT_GT(cgi + img, 0.6);
  EXPECT_GT(cgi, noise);
  EXPECT_GT(img, noise);
  double total = 0.0;
  for (double v : importance) {
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

class AdaBoostRoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(AdaBoostRoundsTest, MoreRoundsNeverWorseOnTrain) {
  const Dataset train = MakeCorpus(1000, 0.3, 5);
  AdaBoost small(AdaBoost::Config{GetParam()});
  small.Train(train);
  AdaBoost large(AdaBoost::Config{GetParam() * 4});
  large.Train(train);
  const auto acc = [&train](const AdaBoost& m) {
    return Evaluate(train, [&m](const FeatureVector& x) { return m.Predict(x); }).Accuracy();
  };
  EXPECT_GE(acc(large) + 0.02, acc(small));  // Allow tiny nonmonotonicity.
}

INSTANTIATE_TEST_SUITE_P(Rounds, AdaBoostRoundsTest, ::testing::Values(1, 5, 25, 50));

TEST(AdaBoostTest, EmptyTrainingIsSafe) {
  AdaBoost model;
  model.Train(Dataset{});
  EXPECT_TRUE(model.stumps().empty());
  FeatureVector x{};
  EXPECT_EQ(model.Score(x), 0.0);
}

TEST(AdaBoostTest, SingleClassDegeneratesGracefully) {
  Dataset data;
  for (int i = 0; i < 10; ++i) {
    Example e;
    e.label = kLabelRobot;
    e.x[0] = static_cast<double>(i);
    data.examples.push_back(e);
  }
  AdaBoost model;
  model.Train(data);
  // All-robot data: the model must predict robot everywhere it saw data.
  EXPECT_EQ(model.Predict(data.examples[3].x), kLabelRobot);
}

TEST(DecisionStumpTest, PredictPolarity) {
  DecisionStump stump{0, 0.5, +1, 1.0};
  FeatureVector lo{};
  lo[0] = 0.2;
  FeatureVector hi{};
  hi[0] = 0.8;
  EXPECT_EQ(stump.Predict(lo), -1);
  EXPECT_EQ(stump.Predict(hi), +1);
  stump.polarity = -1;
  EXPECT_EQ(stump.Predict(lo), +1);
  EXPECT_EQ(stump.Predict(hi), -1);
}

TEST(DatasetTest, StratifiedSplitPreservesBalance) {
  const Dataset data = MakeCorpus(1000, 0.1, 6);
  Rng rng(7);
  const TrainTestSplit split = StratifiedSplit(data, 0.5, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), data.size());
  EXPECT_EQ(split.train.CountLabel(kLabelRobot), 250u);
  EXPECT_EQ(split.train.CountLabel(kLabelHuman), 250u);
  EXPECT_EQ(split.test.CountLabel(kLabelRobot), 250u);
}

TEST(DatasetTest, SplitFractionRespected) {
  const Dataset data = MakeCorpus(1000, 0.1, 8);
  Rng rng(9);
  const TrainTestSplit split = StratifiedSplit(data, 0.8, rng);
  EXPECT_EQ(split.train.size(), 800u);
  EXPECT_EQ(split.test.size(), 200u);
}

}  // namespace
}  // namespace robodet
