#include "src/ml/evaluation.h"

#include <algorithm>

namespace robodet {

RocCurve ComputeRoc(const Dataset& data,
                    const std::function<double(const FeatureVector&)>& score) {
  RocCurve out;
  struct Scored {
    double s;
    int label;
  };
  std::vector<Scored> scored;
  scored.reserve(data.size());
  size_t positives = 0;
  size_t negatives = 0;
  for (const Example& e : data.examples) {
    scored.push_back({score(e.x), e.label});
    (e.label == kLabelRobot ? positives : negatives) += 1;
  }
  if (positives == 0 || negatives == 0) {
    return out;
  }
  // Strictest threshold first: descending score.
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.s > b.s;
  });

  size_t tp = 0;
  size_t fp = 0;
  out.points.emplace_back(0.0, 0.0);
  double prev_fpr = 0.0;
  double prev_tpr = 0.0;
  for (size_t i = 0; i < scored.size(); ++i) {
    (scored[i].label == kLabelRobot ? tp : fp) += 1;
    // Emit a point only when the threshold actually moves (ties grouped).
    if (i + 1 < scored.size() && scored[i + 1].s == scored[i].s) {
      continue;
    }
    const double fpr = static_cast<double>(fp) / static_cast<double>(negatives);
    const double tpr = static_cast<double>(tp) / static_cast<double>(positives);
    out.points.emplace_back(fpr, tpr);
    out.auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0;
    prev_fpr = fpr;
    prev_tpr = tpr;
  }
  return out;
}

}  // namespace robodet
