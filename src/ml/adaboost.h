// AdaBoost over decision stumps (§4.2: "We used AdaBoost with 200
// rounds"). Binary discrete AdaBoost (Freund–Schapire): each round fits
// the best single-feature threshold stump under the current example
// weights, then reweights toward the mistakes.
#ifndef ROBODET_SRC_ML_ADABOOST_H_
#define ROBODET_SRC_ML_ADABOOST_H_

#include <array>
#include <vector>

#include "src/ml/dataset.h"

namespace robodet {

struct DecisionStump {
  size_t feature = 0;
  double threshold = 0.0;
  // +1: predict robot when x[feature] > threshold; -1: predict robot when
  // x[feature] <= threshold.
  int polarity = 1;
  double alpha = 0.0;  // Vote weight.

  int Predict(const FeatureVector& x) const {
    const bool above = x[feature] > threshold;
    return (above ? 1 : -1) * polarity;
  }
};

class AdaBoost {
 public:
  struct Config {
    int rounds = 200;
  };

  AdaBoost() : AdaBoost(Config{}) {}
  explicit AdaBoost(Config config) : config_(config) {}

  // Trains on `train`. Requires at least one example of each class.
  void Train(const Dataset& train);

  // Signed score: positive means robot.
  double Score(const FeatureVector& x) const;
  int Predict(const FeatureVector& x) const { return Score(x) >= 0.0 ? kLabelRobot : kLabelHuman; }

  const std::vector<DecisionStump>& stumps() const { return stumps_; }

  // Total |alpha| mass per feature, normalized to sum to 1; the paper's
  // "most contributing attributes" ranking.
  std::array<double, kNumFeatures> FeatureImportance() const;

 private:
  Config config_;
  std::vector<DecisionStump> stumps_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_ML_ADABOOST_H_
