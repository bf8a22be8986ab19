// End-to-end integration: simulate a labeled capture, round-trip it
// through the CSV log format, train the §4.2 classifier from the reloaded
// log, and drive the staged pipeline with it — the complete operator
// workflow, in one test.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/robodet.h"

namespace robodet {
namespace {

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("robodet_pipeline_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PipelineIntegrationTest, CaptureSerializeTrainClassify) {
  // 1. Capture.
  ExperimentConfig config;
  config.seed = 777;
  config.num_clients = 250;
  config.site.num_pages = 60;
  config.mix.robot.max_requests = 80;
  Experiment experiment(config);
  experiment.Run();
  ASSERT_GT(experiment.records().size(), 100u);

  // 2. Serialize + reload.
  const std::string sessions_csv = (dir_ / "s.csv").string();
  const std::string events_csv = (dir_ / "e.csv").string();
  ASSERT_TRUE(WriteSessionsCsv(sessions_csv, experiment.records()));
  ASSERT_TRUE(WriteEventsCsv(events_csv, experiment.records()));
  std::vector<SessionRecord> log;
  ASSERT_TRUE(ReadRecordsCsv(sessions_csv, events_csv, &log));
  ASSERT_EQ(log.size(), experiment.records().size());

  // 3. Train the ML fallback from the reloaded log.
  Dataset corpus;
  for (const SessionRecord& r : log) {
    if (r.request_count() <= 10) {
      continue;
    }
    Example e;
    e.x = ExtractFeatures(r.events);
    e.label = r.truly_human ? kLabelHuman : kLabelRobot;
    corpus.examples.push_back(e);
  }
  ASSERT_GT(corpus.CountLabel(kLabelHuman), 10u);
  ASSERT_GT(corpus.CountLabel(kLabelRobot), 10u);
  Rng split_rng(3);
  const TrainTestSplit split = StratifiedSplit(corpus, 0.5, split_rng);
  AdaBoost model(AdaBoost::Config{100});
  model.Train(split.train);
  const double test_acc =
      Evaluate(split.test, [&model](const FeatureVector& x) { return model.Predict(x); })
          .Accuracy();
  EXPECT_GT(test_acc, 0.9);

  // 4. Staged pipeline with the trained fallback, over the same log.
  size_t record_index = 0;
  const std::vector<SessionRecord>* log_ptr = &log;
  StagedPipeline staged([&model, &record_index, log_ptr](const SessionObservation&) {
    const FeatureVector x = ExtractFeatures((*log_ptr)[record_index].events);
    return model.Predict(x) == kLabelRobot ? Verdict::kRobot : Verdict::kHuman;
  });
  ConfusionMatrix cm;
  int undecided = 0;
  for (record_index = 0; record_index < log.size(); ++record_index) {
    const SessionRecord& r = log[record_index];
    if (r.request_count() <= 10) {
      continue;
    }
    const auto decision = staged.Decide(r.observation);
    if (decision.classification.verdict == Verdict::kUnknown) {
      ++undecided;
      continue;
    }
    cm.Add(r.truly_human ? kLabelHuman : kLabelRobot,
           decision.classification.verdict == Verdict::kRobot ? kLabelRobot : kLabelHuman);
  }
  EXPECT_GT(cm.Accuracy(), 0.92);
  EXPECT_LT(undecided, static_cast<int>(log.size()) / 10);
}

}  // namespace
}  // namespace robodet
