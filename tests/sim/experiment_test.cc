#include "src/sim/experiment.h"

#include <gtest/gtest.h>

#include "src/core/combined_classifier.h"

namespace robodet {
namespace {

ExperimentConfig SmallConfig(uint64_t seed = 1) {
  ExperimentConfig config;
  config.seed = seed;
  config.num_clients = 120;
  config.arrival_window = kHour;
  config.site.num_pages = 40;
  config.mix.robot.max_requests = 60;
  config.mix.human_max_pages = 8;
  return config;
}

TEST(ExperimentTest, RunsAndCollectsRecords) {
  Experiment experiment(SmallConfig());
  experiment.Run();
  EXPECT_FALSE(experiment.records().empty());
  // Every record has ground truth attached.
  for (const SessionRecord& r : experiment.records()) {
    EXPECT_FALSE(r.client_type.empty());
    EXPECT_GT(r.request_count(), 0);
  }
}

TEST(ExperimentTest, TypeStatsAccountForAllClients) {
  Experiment experiment(SmallConfig(2));
  experiment.Run();
  uint64_t clients = 0;
  for (const auto& [type, stats] : experiment.type_stats()) {
    clients += stats.clients;
  }
  EXPECT_EQ(clients, 120u);
}

TEST(ExperimentTest, DeterministicForSeed) {
  Experiment a(SmallConfig(3));
  a.Run();
  Experiment b(SmallConfig(3));
  b.Run();
  ASSERT_EQ(a.records().size(), b.records().size());
  const RegistrySnapshot a_counts = a.proxy().metrics().Scrape();
  const RegistrySnapshot b_counts = b.proxy().metrics().Scrape();
  EXPECT_EQ(a_counts.CounterValue("robodet_requests_total"),
            b_counts.CounterValue("robodet_requests_total"));
  EXPECT_EQ(a_counts.CounterValue("robodet_beacon_hits_total", {{"result", "ok"}}),
            b_counts.CounterValue("robodet_beacon_hits_total", {{"result", "ok"}}));
}

TEST(ExperimentTest, MinRequestFilterWorks) {
  Experiment experiment(SmallConfig(4));
  experiment.Run();
  const auto filtered = experiment.RecordsWithMinRequests(10);
  for (const SessionRecord* r : filtered) {
    EXPECT_GT(r->request_count(), 10);
  }
  EXPECT_LE(filtered.size(), experiment.records().size());
}

TEST(ExperimentTest, ClassifierSeparatesHumansFromRobots) {
  ExperimentConfig config = SmallConfig(5);
  config.num_clients = 300;
  Experiment experiment(config);
  experiment.Run();

  int human_correct = 0;
  int human_total = 0;
  int robot_correct = 0;
  int robot_total = 0;
  for (const SessionRecord* r : experiment.RecordsWithMinRequests(10)) {
    const Verdict v = CombinedClassifier::SetAlgebraVerdict(r->signals());
    if (r->truly_human) {
      ++human_total;
      human_correct += v == Verdict::kHuman ? 1 : 0;
    } else {
      ++robot_total;
      robot_correct += v == Verdict::kRobot ? 1 : 0;
    }
  }
  ASSERT_GT(human_total, 0);
  ASSERT_GT(robot_total, 0);
  // JS-enabled humans are essentially always classified human; a small
  // JS-disabled tail plus unlucky sessions keeps this below 100%.
  EXPECT_GT(static_cast<double>(human_correct) / human_total, 0.9);
  // Robots in the default mix are overwhelmingly probe-deaf or JS-no-mouse.
  EXPECT_GT(static_cast<double>(robot_correct) / robot_total, 0.9);
}

TEST(ExperimentTest, HumanSessionsShowMouseSignals) {
  Experiment experiment(SmallConfig(6));
  experiment.Run();
  int mouse = 0;
  int humans = 0;
  for (const SessionRecord& r : experiment.records()) {
    if (r.truly_human && r.request_count() > 10) {
      ++humans;
      mouse += r.signals().MouseActivity() ? 1 : 0;
    }
  }
  ASSERT_GT(humans, 0);
  EXPECT_GT(static_cast<double>(mouse) / humans, 0.8);
}

TEST(ExperimentTest, EventsAreCappedButCountsAreNot) {
  ExperimentConfig config = SmallConfig(7);
  config.mix.robot.max_requests = 400;
  Experiment experiment(config);
  experiment.Run();
  for (const SessionRecord& r : experiment.records()) {
    EXPECT_LE(r.events.size(), SessionState::kMaxTrackedEvents);
  }
}

}  // namespace
}  // namespace robodet
