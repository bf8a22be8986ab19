#include "src/ml/metrics.h"

namespace robodet {

double ConfusionMatrix::Accuracy() const {
  const uint64_t n = total();
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(true_positive + true_negative) / static_cast<double>(n);
}

double ConfusionMatrix::HumanMisclassificationRate() const {
  const uint64_t humans = false_positive + true_negative;
  if (humans == 0) {
    return 0.0;
  }
  return static_cast<double>(false_positive) / static_cast<double>(humans);
}

double ConfusionMatrix::RobotMissRate() const {
  const uint64_t robots = true_positive + false_negative;
  if (robots == 0) {
    return 0.0;
  }
  return static_cast<double>(false_negative) / static_cast<double>(robots);
}

void ConfusionMatrix::Add(int truth, int prediction) {
  if (truth == kLabelRobot) {
    if (prediction == kLabelRobot) {
      ++true_positive;
    } else {
      ++false_negative;
    }
  } else {
    if (prediction == kLabelRobot) {
      ++false_positive;
    } else {
      ++true_negative;
    }
  }
}

ConfusionMatrix Evaluate(const Dataset& data,
                         const std::function<int(const FeatureVector&)>& predict) {
  ConfusionMatrix cm;
  for (const Example& e : data.examples) {
    cm.Add(e.label, predict(e.x));
  }
  return cm;
}

}  // namespace robodet
