// Reproduces Figure 4: "Machine Learning Performance to Detect Robots" —
// AdaBoost classification accuracy as a function of the number of requests
// the classifier is built over. Eight classifiers at multiples of 20
// requests, each trained on the attributes of each session's first N
// requests; equal random train/test split; 200 boosting rounds.
//
// Paper reference: test accuracy climbs from ~91% at 20 requests to ~95%
// at 160, with the training curve slightly above the test curve.
//
// Usage: fig4_ml_accuracy [num_clients]   (default 3000)
#include "bench/bench_util.h"

using namespace robodet;

int main(int argc, char** argv) {
  const size_t num_clients = ClientsFromArgs(argc, argv, 3000);
  PrintHeader("Figure 4 — AdaBoost accuracy vs. classifier request count");

  // Two-week-style capture; robots are allowed longer sessions so that
  // the 160-request classifiers have data to work with.
  ExperimentConfig config = CodeenWeekConfig(num_clients, 42975);
  config.mix.robot.max_requests = 220;
  config.mix.human_max_pages = 32;
  Experiment experiment(config);
  experiment.Run();

  // Stable split of the session records (not of the per-N examples), so
  // every classifier sees the same train/test sessions — as in the paper.
  std::vector<const SessionRecord*> sessions =
      experiment.RecordsWithMinRequests(kTable1MinRequests);
  Rng split_rng(5);
  split_rng.Shuffle(sessions);
  std::vector<const SessionRecord*> train_sessions;
  std::vector<const SessionRecord*> test_sessions;
  for (size_t i = 0; i < sessions.size(); ++i) {
    (i % 2 == 0 ? train_sessions : test_sessions).push_back(sessions[i]);
  }
  std::printf("corpus: %zu train / %zu test sessions "
              "(paper: 42,975 human + 124,271 robot)\n\n",
              train_sessions.size(), test_sessions.size());

  const auto dataset_at = [](const std::vector<const SessionRecord*>& recs, size_t first_n) {
    Dataset data;
    for (const SessionRecord* r : recs) {
      Example e;
      e.x = ExtractFeatures(r->events, first_n);
      e.label = r->truly_human ? kLabelHuman : kLabelRobot;
      data.examples.push_back(e);
    }
    return data;
  };

  std::printf("  %-10s %10s %10s %8s %10s %10s\n", "requests", "train acc", "test acc",
              "AUC", "tree acc", "bayes acc");
  for (int n = 20; n <= 160; n += 20) {
    const Dataset train = dataset_at(train_sessions, static_cast<size_t>(n));
    const Dataset test = dataset_at(test_sessions, static_cast<size_t>(n));
    AdaBoost model(AdaBoost::Config{200});
    model.Train(train);
    const auto predict = [&model](const FeatureVector& x) { return model.Predict(x); };
    const double train_acc = Evaluate(train, predict).Accuracy();
    const double test_acc = Evaluate(test, predict).Accuracy();
    const RocCurve roc =
        ComputeRoc(test, [&model](const FeatureVector& x) { return model.Score(x); });

    // Baselines: the Tan&Kumar-lineage decision tree, and naive Bayes.
    DecisionTree tree;
    tree.Train(train);
    const double tree_acc =
        Evaluate(test, [&tree](const FeatureVector& x) { return tree.Predict(x); })
            .Accuracy();
    GaussianNaiveBayes bayes;
    bayes.Train(train);
    const double bayes_acc =
        Evaluate(test, [&bayes](const FeatureVector& x) { return bayes.Predict(x); })
            .Accuracy();
    std::printf("  %-10d %10s %10s %8.4f %10s %10s\n", n,
                FormatPercent(train_acc, 2).c_str(), FormatPercent(test_acc, 2).c_str(),
                roc.auc, FormatPercent(tree_acc, 2).c_str(),
                FormatPercent(bayes_acc, 2).c_str());
  }
  std::printf("\npaper: 91%% -> 95%% test accuracy over 20..160 requests; train above test.\n"
              "Shape checks: accuracy should (a) improve with N, (b) train >= test.\n"
              "(Absolute values run higher here: synthetic robot families are cleaner\n"
              "than CoDeeN's 2006 traffic; see EXPERIMENTS.md.)\n");
  return 0;
}
