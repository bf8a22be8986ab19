// Classifier evaluation: confusion matrix and derived rates, with the
// paper's conventions (positive class = robot; the Table 1 "false positive
// rate" is humans misclassified as robots over all true humans... see
// note below — the paper computes FP/negatives with robots as negatives
// for that table; EvaluateBinary reports both directions so every bench
// can quote the one its paper artifact used).
#ifndef ROBODET_SRC_ML_METRICS_H_
#define ROBODET_SRC_ML_METRICS_H_

#include <cstdint>
#include <functional>

#include "src/ml/dataset.h"

namespace robodet {

struct ConfusionMatrix {
  // Positive = robot.
  uint64_t true_positive = 0;   // Robot called robot.
  uint64_t false_positive = 0;  // Human called robot.
  uint64_t true_negative = 0;   // Human called human.
  uint64_t false_negative = 0;  // Robot called human.

  uint64_t total() const {
    return true_positive + false_positive + true_negative + false_negative;
  }
  double Accuracy() const;
  // Humans wrongly called robot, over all true humans.
  double HumanMisclassificationRate() const;
  // Robots wrongly called human, over all true robots.
  double RobotMissRate() const;

  void Add(int truth, int prediction);
};

// Evaluates `predict` over a dataset.
ConfusionMatrix Evaluate(const Dataset& data,
                         const std::function<int(const FeatureVector&)>& predict);

}  // namespace robodet

#endif  // ROBODET_SRC_ML_METRICS_H_
