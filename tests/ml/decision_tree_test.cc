#include "src/ml/decision_tree.h"

#include <gtest/gtest.h>

#include "src/ml/evaluation.h"
#include "src/ml/metrics.h"
#include "src/util/rng.h"
#include "tests/ml/gaussian.h"

namespace robodet {
namespace {

Dataset MakeCorpus(size_t n, double noise, uint64_t seed) {
  Dataset data;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Example e;
    const bool robot = i % 2 == 0;
    e.label = robot ? kLabelRobot : kLabelHuman;
    e.x[0] = std::clamp((robot ? 0.8 : 0.2) + Gaussian(rng, 0.0, noise), 0.0, 1.0);
    e.x[1] = std::clamp((robot ? 0.1 : 0.6) + Gaussian(rng, 0.0, noise), 0.0, 1.0);
    e.x[2] = rng.UniformDouble();
    data.examples.push_back(e);
  }
  return data;
}

TEST(DecisionTreeTest, LearnsSeparableData) {
  const Dataset data = MakeCorpus(400, 0.02, 1);
  DecisionTree tree;
  tree.Train(data);
  const ConfusionMatrix cm =
      Evaluate(data, [&tree](const FeatureVector& x) { return tree.Predict(x); });
  EXPECT_EQ(cm.Accuracy(), 1.0);
  EXPECT_GT(tree.node_count(), 1u);
}

TEST(DecisionTreeTest, GeneralizesOnNoisyData) {
  const Dataset train = MakeCorpus(2000, 0.25, 2);
  const Dataset test = MakeCorpus(2000, 0.25, 3);
  DecisionTree tree;
  tree.Train(train);
  const ConfusionMatrix cm =
      Evaluate(test, [&tree](const FeatureVector& x) { return tree.Predict(x); });
  EXPECT_GT(cm.Accuracy(), 0.85);
}

TEST(DecisionTreeTest, DepthLimitRespected) {
  // Noisy enough that splitting would go on past the depth limit of 8.
  const Dataset data = MakeCorpus(4000, 0.4, 4);
  DecisionTree tree;
  tree.Train(data);
  EXPECT_EQ(tree.depth(), 8);
}

TEST(DecisionTreeTest, EmptyAndSingleClass) {
  DecisionTree tree;
  tree.Train(Dataset{});
  FeatureVector x{};
  EXPECT_EQ(tree.Score(x), 0.0);

  Dataset robots;
  for (int i = 0; i < 20; ++i) {
    Example e;
    e.label = kLabelRobot;
    e.x[0] = static_cast<double>(i);
    robots.examples.push_back(e);
  }
  tree.Train(robots);
  EXPECT_EQ(tree.Predict(robots.examples[0].x), kLabelRobot);
  EXPECT_EQ(tree.node_count(), 1u);  // Pure root: no split.
}

TEST(DecisionTreeTest, ScoreReflectsLeafPurity) {
  const Dataset data = MakeCorpus(400, 0.02, 5);
  DecisionTree tree;
  tree.Train(data);
  // Clearly robot-side point.
  FeatureVector robot_x{};
  robot_x[0] = 0.9;
  robot_x[1] = 0.05;
  EXPECT_GT(tree.Score(robot_x), 0.5);
  FeatureVector human_x{};
  human_x[0] = 0.1;
  human_x[1] = 0.7;
  EXPECT_LT(tree.Score(human_x), -0.5);
}

TEST(EvaluationTest, RocPerfectScorer) {
  const Dataset data = MakeCorpus(200, 0.01, 10);
  const RocCurve roc = ComputeRoc(data, [](const FeatureVector& x) { return x[0]; });
  EXPECT_NEAR(roc.auc, 1.0, 0.01);
  ASSERT_GE(roc.points.size(), 2u);
  EXPECT_EQ(roc.points.front().first, 0.0);
  EXPECT_NEAR(roc.points.back().second, 1.0, 1e-9);
}

TEST(EvaluationTest, RocRandomScorerIsHalf) {
  Dataset data = MakeCorpus(4000, 0.01, 11);
  Rng rng(12);
  const RocCurve roc =
      ComputeRoc(data, [&rng](const FeatureVector&) { return rng.UniformDouble(); });
  EXPECT_NEAR(roc.auc, 0.5, 0.05);
}

TEST(EvaluationTest, RocInvertedScorerIsZero) {
  const Dataset data = MakeCorpus(200, 0.01, 13);
  const RocCurve roc = ComputeRoc(data, [](const FeatureVector& x) { return -x[0]; });
  EXPECT_LT(roc.auc, 0.1);
}

TEST(EvaluationTest, RocSingleClassIsEmpty) {
  Dataset robots;
  for (int i = 0; i < 5; ++i) {
    Example e;
    e.label = kLabelRobot;
    robots.examples.push_back(e);
  }
  const RocCurve roc = ComputeRoc(robots, [](const FeatureVector&) { return 0.0; });
  EXPECT_TRUE(roc.points.empty());
  EXPECT_EQ(roc.auc, 0.0);
}

}  // namespace
}  // namespace robodet
