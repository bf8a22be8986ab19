#include <gtest/gtest.h>

#include "src/ml/metrics.h"
#include "src/ml/naive_bayes.h"
#include "src/util/rng.h"
#include "tests/ml/gaussian.h"

namespace robodet {
namespace {

Dataset TwoGaussians(size_t n, double gap, uint64_t seed) {
  Dataset data;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Example e;
    const bool robot = i % 2 == 0;
    e.label = robot ? kLabelRobot : kLabelHuman;
    for (size_t f = 0; f < 3; ++f) {
      e.x[f] = Gaussian(rng, robot ? gap : 0.0, 1.0);
    }
    data.examples.push_back(e);
  }
  return data;
}

TEST(NaiveBayesTest, LearnsWellSeparatedClasses) {
  const Dataset train = TwoGaussians(2000, 4.0, 1);
  const Dataset test = TwoGaussians(2000, 4.0, 2);
  GaussianNaiveBayes model;
  model.Train(train);
  const ConfusionMatrix cm =
      Evaluate(test, [&model](const FeatureVector& x) { return model.Predict(x); });
  EXPECT_GT(cm.Accuracy(), 0.98);
}

TEST(NaiveBayesTest, UntrainedScoresZero) {
  GaussianNaiveBayes model;
  FeatureVector x{};
  EXPECT_EQ(model.Score(x), 0.0);
}

TEST(NaiveBayesTest, PriorsMatter) {
  // 90% robots: with weak features, predictions lean robot.
  Dataset data;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    Example e;
    e.label = i % 10 == 0 ? kLabelHuman : kLabelRobot;
    e.x[0] = Gaussian(rng, 0.0, 1.0);  // Uninformative.
    data.examples.push_back(e);
  }
  GaussianNaiveBayes model;
  model.Train(data);
  int robot_preds = 0;
  for (const Example& e : data.examples) {
    robot_preds += model.Predict(e.x) == kLabelRobot ? 1 : 0;
  }
  EXPECT_GT(robot_preds, 900);
}

TEST(ConfusionMatrixTest, RatesComputed) {
  ConfusionMatrix cm;
  cm.true_positive = 80;
  cm.false_negative = 20;
  cm.true_negative = 95;
  cm.false_positive = 5;
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 175.0 / 200.0);
  EXPECT_DOUBLE_EQ(cm.HumanMisclassificationRate(), 0.05);
  EXPECT_DOUBLE_EQ(cm.RobotMissRate(), 0.2);
}

TEST(ConfusionMatrixTest, EmptyIsSafe) {
  ConfusionMatrix cm;
  EXPECT_EQ(cm.Accuracy(), 0.0);
  EXPECT_EQ(cm.HumanMisclassificationRate(), 0.0);
  EXPECT_EQ(cm.RobotMissRate(), 0.0);
}

TEST(ConfusionMatrixTest, AddRoutesCorrectly) {
  ConfusionMatrix cm;
  cm.Add(kLabelRobot, kLabelRobot);
  cm.Add(kLabelRobot, kLabelHuman);
  cm.Add(kLabelHuman, kLabelRobot);
  cm.Add(kLabelHuman, kLabelHuman);
  EXPECT_EQ(cm.true_positive, 1u);
  EXPECT_EQ(cm.false_negative, 1u);
  EXPECT_EQ(cm.false_positive, 1u);
  EXPECT_EQ(cm.true_negative, 1u);
}

}  // namespace
}  // namespace robodet
