// Depth-limited binary decision tree with entropy splits — a C4.5-style
// learner in the lineage of Tan & Kumar's robot-session classifier
// (related work [6]), used as a baseline against AdaBoost in the Figure-4
// harness.
#ifndef ROBODET_SRC_ML_DECISION_TREE_H_
#define ROBODET_SRC_ML_DECISION_TREE_H_

#include <memory>
#include <vector>

#include "src/ml/dataset.h"

namespace robodet {

class DecisionTree {
 public:
  void Train(const Dataset& train);

  // Probability-like robot score in [-1, 1]: leaf robot-fraction mapped to
  // [-1, 1]; positive means robot.
  double Score(const FeatureVector& x) const;
  int Predict(const FeatureVector& x) const { return Score(x) >= 0.0 ? kLabelRobot : kLabelHuman; }

  size_t node_count() const { return nodes_.size(); }
  int depth() const { return depth_; }

 private:
  struct Node {
    bool is_leaf = true;
    size_t feature = 0;
    double threshold = 0.0;
    // Children indices (valid when !is_leaf).
    int left = -1;   // x[feature] <= threshold
    int right = -1;  // x[feature] >  threshold
    double robot_fraction = 0.5;
  };

  int Build(const Dataset& data, std::vector<size_t>& indices, int depth);

  std::vector<Node> nodes_;
  int depth_ = 0;
};

}  // namespace robodet

#endif  // ROBODET_SRC_ML_DECISION_TREE_H_
