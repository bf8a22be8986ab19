// Reproduces Table 2 (the 12 AdaBoost attributes) as a measurement: the
// per-class mean of each attribute over a labeled corpus, plus the
// boosting-weight importance ranking. The paper reports RESPCODE 3XX %,
// REFERRER % and UNSEEN REFERRER % as the most contributing attributes —
// robots rarely get redirected, often omit referrers, and referrer
// spammers trip the unseen-referrer flag constantly.
//
// Usage: table2_features [num_clients]   (default 3000)
#include <algorithm>

#include "bench/bench_util.h"

using namespace robodet;

int main(int argc, char** argv) {
  const size_t num_clients = ClientsFromArgs(argc, argv, 3000);
  PrintHeader("Table 2 — the 12 session attributes, measured per class");

  Experiment experiment(CodeenWeekConfig(num_clients, 417));
  experiment.Run();

  RunningStats human_stats[kNumFeatures];
  RunningStats robot_stats[kNumFeatures];
  Dataset corpus;
  for (const SessionRecord* r : experiment.RecordsWithMinRequests(kTable1MinRequests)) {
    Example e;
    e.x = ExtractFeatures(r->events);
    e.label = r->truly_human ? kLabelHuman : kLabelRobot;
    corpus.examples.push_back(e);
    for (size_t f = 0; f < kNumFeatures; ++f) {
      (r->truly_human ? human_stats[f] : robot_stats[f]).Add(e.x[f]);
    }
  }
  std::printf("corpus: %zu sessions (%zu human, %zu robot)\n\n", corpus.size(),
              corpus.CountLabel(kLabelHuman), corpus.CountLabel(kLabelRobot));

  std::printf("  %-20s %12s %12s\n", "attribute", "human mean", "robot mean");
  for (size_t f = 0; f < kNumFeatures; ++f) {
    std::printf("  %-20s %12s %12s\n", std::string(FeatureName(f)).c_str(),
                FormatPercent(human_stats[f].mean()).c_str(),
                FormatPercent(robot_stats[f].mean()).c_str());
  }

  // Importance ranking from the paper's learner.
  Rng split_rng(7);
  const TrainTestSplit split = StratifiedSplit(corpus, 0.5, split_rng);
  AdaBoost model(AdaBoost::Config{200});
  model.Train(split.train);
  const auto importance = model.FeatureImportance();
  std::vector<size_t> order(kNumFeatures);
  for (size_t i = 0; i < kNumFeatures; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&importance](size_t a, size_t b) { return importance[a] > importance[b]; });

  std::printf("\nAdaBoost attribute importance (share of boosting weight):\n");
  for (size_t i = 0; i < kNumFeatures; ++i) {
    if (importance[order[i]] <= 0.0) {
      continue;
    }
    std::printf("  %2zu. %-20s %s\n", i + 1, std::string(FeatureName(order[i])).c_str(),
                FormatPercent(importance[order[i]]).c_str());
  }
  std::printf("\npaper: most contributing were RESPCODE 3XX %%, REFERRER %% and "
              "UNSEEN REFERRER %%\n");
  return 0;
}
