// Model-agnostic evaluation: ROC/AUC over any real-valued scorer. §4.2 notes
// that "attribute selection must be done carefully" — these are the tools
// an operator needs to make that call on their own traffic.
#ifndef ROBODET_SRC_ML_EVALUATION_H_
#define ROBODET_SRC_ML_EVALUATION_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/ml/dataset.h"

namespace robodet {

// ROC curve points (false positive rate, true positive rate), positive =
// robot, sorted by threshold from permissive to strict, plus the area
// under the curve via the trapezoid rule.
struct RocCurve {
  std::vector<std::pair<double, double>> points;
  double auc = 0.0;
};

RocCurve ComputeRoc(const Dataset& data,
                    const std::function<double(const FeatureVector&)>& score);

}  // namespace robodet

#endif  // ROBODET_SRC_ML_EVALUATION_H_
