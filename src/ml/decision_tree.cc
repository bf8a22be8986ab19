#include "src/ml/decision_tree.h"

#include <algorithm>
#include <cmath>

namespace robodet {
namespace {

constexpr int kMaxDepth = 8;
// Do not split nodes smaller than this.
constexpr size_t kMinNodeSize = 8;
// Stop when a node is this pure (majority fraction).
constexpr double kPurityStop = 0.995;

double Entropy(size_t robots, size_t total) {
  if (total == 0 || robots == 0 || robots == total) {
    return 0.0;
  }
  const double p = static_cast<double>(robots) / static_cast<double>(total);
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

struct Split {
  bool found = false;
  size_t feature = 0;
  double threshold = 0.0;
  double gain = 0.0;
};

Split BestSplit(const Dataset& data, const std::vector<size_t>& indices) {
  Split best;
  size_t robots = 0;
  for (size_t i : indices) {
    robots += data.examples[i].label == kLabelRobot ? 1 : 0;
  }
  const double parent_entropy = Entropy(robots, indices.size());
  if (parent_entropy == 0.0) {
    return best;
  }

  std::vector<size_t> order = indices;
  for (size_t f = 0; f < kNumFeatures; ++f) {
    std::sort(order.begin(), order.end(), [&data, f](size_t a, size_t b) {
      return data.examples[a].x[f] < data.examples[b].x[f];
    });
    size_t left_robots = 0;
    for (size_t k = 0; k + 1 < order.size(); ++k) {
      left_robots += data.examples[order[k]].label == kLabelRobot ? 1 : 0;
      const double v = data.examples[order[k]].x[f];
      const double next = data.examples[order[k + 1]].x[f];
      if (next <= v) {
        continue;
      }
      const size_t left_n = k + 1;
      const size_t right_n = order.size() - left_n;
      const double weighted =
          (static_cast<double>(left_n) * Entropy(left_robots, left_n) +
           static_cast<double>(right_n) * Entropy(robots - left_robots, right_n)) /
          static_cast<double>(order.size());
      const double gain = parent_entropy - weighted;
      if (gain > best.gain + 1e-12) {
        best.found = true;
        best.gain = gain;
        best.feature = f;
        best.threshold = v;
      }
    }
  }
  return best;
}

}  // namespace

int DecisionTree::Build(const Dataset& data, std::vector<size_t>& indices, int depth) {
  depth_ = std::max(depth_, depth);
  Node node;
  size_t robots = 0;
  for (size_t i : indices) {
    robots += data.examples[i].label == kLabelRobot ? 1 : 0;
  }
  node.robot_fraction =
      indices.empty() ? 0.5
                      : static_cast<double>(robots) / static_cast<double>(indices.size());

  const double majority = std::max(node.robot_fraction, 1.0 - node.robot_fraction);
  if (depth >= kMaxDepth || indices.size() < kMinNodeSize || majority >= kPurityStop) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  const Split split = BestSplit(data, indices);
  if (!split.found) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  std::vector<size_t> left;
  std::vector<size_t> right;
  for (size_t i : indices) {
    (data.examples[i].x[split.feature] <= split.threshold ? left : right).push_back(i);
  }
  if (left.empty() || right.empty()) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }
  indices.clear();
  indices.shrink_to_fit();

  node.is_leaf = false;
  node.feature = split.feature;
  node.threshold = split.threshold;
  nodes_.push_back(node);
  const int self = static_cast<int>(nodes_.size()) - 1;
  const int left_idx = Build(data, left, depth + 1);
  const int right_idx = Build(data, right, depth + 1);
  nodes_[self].left = left_idx;
  nodes_[self].right = right_idx;
  return self;
}

void DecisionTree::Train(const Dataset& train) {
  nodes_.clear();
  depth_ = 0;
  if (train.size() == 0) {
    return;
  }
  std::vector<size_t> indices(train.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  Build(train, indices, 0);
}

double DecisionTree::Score(const FeatureVector& x) const {
  if (nodes_.empty()) {
    return 0.0;
  }
  int at = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<size_t>(at)];
    if (node.is_leaf) {
      return 2.0 * node.robot_fraction - 1.0;
    }
    at = x[node.feature] <= node.threshold ? node.left : node.right;
  }
}

}  // namespace robodet
