#include "src/ml/adaboost.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace robodet {
namespace {

// Stop early if a stump achieves weighted error below this (perfectly
// separable data would otherwise produce infinite alpha).
constexpr double kMinError = 1e-10;

// Per-feature presorted example order, computed once and reused by every
// boosting round: stump fitting is then O(N) per feature per round.
using FeatureOrder = std::vector<std::vector<size_t>>;

FeatureOrder PresortFeatures(const Dataset& data) {
  FeatureOrder order(kNumFeatures);
  for (size_t f = 0; f < kNumFeatures; ++f) {
    order[f].resize(data.size());
    std::iota(order[f].begin(), order[f].end(), size_t{0});
    std::sort(order[f].begin(), order[f].end(), [&data, f](size_t a, size_t b) {
      return data.examples[a].x[f] < data.examples[b].x[f];
    });
  }
  return order;
}

// Finds the best stump for the current weights. For each feature, sweep
// the sorted examples maintaining the weighted label mass on the left of
// the candidate threshold; the error of each (threshold, polarity) pair
// falls out of the running sums.
DecisionStump FitStump(const Dataset& data, const FeatureOrder& order,
                       const std::vector<double>& weights, double* out_error) {
  DecisionStump best;
  double best_error = 1.0;

  // Total weighted mass per class.
  double total_pos = 0.0;  // label +1 (robot)
  double total_neg = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    (data.examples[i].label == kLabelRobot ? total_pos : total_neg) += weights[i];
  }

  for (size_t f = 0; f < kNumFeatures; ++f) {
    // Polarity +1 predicts robot for x > t. Error(t) =
    //   (robot mass with x <= t) + (human mass with x > t)
    // = left_pos + (total_neg - left_neg).
    double left_pos = 0.0;
    double left_neg = 0.0;

    // Threshold below the minimum: everything is "above".
    {
      const double error_above = total_pos - left_pos + left_neg;  // polarity -1
      const double error_below = left_pos + total_neg - left_neg;  // polarity +1
      const double lowest = data.size() > 0
                                ? data.examples[order[f].front()].x[f] - 1e-9
                                : 0.0;
      if (error_below < best_error) {
        best_error = error_below;
        best = {f, lowest, +1, 0.0};
      }
      if (error_above < best_error) {
        best_error = error_above;
        best = {f, lowest, -1, 0.0};
      }
    }

    for (size_t k = 0; k < order[f].size(); ++k) {
      const size_t idx = order[f][k];
      const Example& e = data.examples[idx];
      (e.label == kLabelRobot ? left_pos : left_neg) += weights[idx];
      // Candidate threshold between this value and the next distinct one.
      if (k + 1 < order[f].size()) {
        const double v = e.x[f];
        const double next = data.examples[order[f][k + 1]].x[f];
        if (next <= v) {
          continue;  // Ties: no threshold between equal values.
        }
      }
      const double t = e.x[f];
      const double error_plus = left_pos + (total_neg - left_neg);
      const double error_minus = (total_pos - left_pos) + left_neg;
      if (error_plus < best_error) {
        best_error = error_plus;
        best = {f, t, +1, 0.0};
      }
      if (error_minus < best_error) {
        best_error = error_minus;
        best = {f, t, -1, 0.0};
      }
    }
  }
  *out_error = best_error;
  return best;
}

}  // namespace

void AdaBoost::Train(const Dataset& train) {
  stumps_.clear();
  const size_t n = train.size();
  if (n == 0) {
    return;
  }
  const FeatureOrder order = PresortFeatures(train);
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));

  for (int round = 0; round < config_.rounds; ++round) {
    double error = 0.0;
    DecisionStump stump = FitStump(train, order, weights, &error);
    error = std::clamp(error, 0.0, 0.5);
    if (error >= 0.5 - 1e-12) {
      break;  // No weak learner better than chance remains.
    }
    const double eps = std::max(error, kMinError);
    stump.alpha = 0.5 * std::log((1.0 - eps) / eps);
    stumps_.push_back(stump);

    // Reweight and renormalize.
    double z = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const int pred = stump.Predict(train.examples[i].x);
      const int y = train.examples[i].label;
      weights[i] *= std::exp(-stump.alpha * static_cast<double>(y * pred));
      z += weights[i];
    }
    if (z <= 0.0) {
      break;
    }
    for (double& w : weights) {
      w /= z;
    }
    if (error <= kMinError) {
      break;  // Perfect stump: the ensemble is this stump.
    }
  }
}

double AdaBoost::Score(const FeatureVector& x) const {
  double s = 0.0;
  for (const DecisionStump& stump : stumps_) {
    s += stump.alpha * static_cast<double>(stump.Predict(x));
  }
  return s;
}

std::array<double, kNumFeatures> AdaBoost::FeatureImportance() const {
  std::array<double, kNumFeatures> importance{};
  double total = 0.0;
  for (const DecisionStump& stump : stumps_) {
    importance[stump.feature] += std::abs(stump.alpha);
    total += std::abs(stump.alpha);
  }
  if (total > 0.0) {
    for (double& v : importance) {
      v /= total;
    }
  }
  return importance;
}

}  // namespace robodet
