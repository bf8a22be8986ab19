#include <gtest/gtest.h>

#include "src/core/browser_test_detector.h"
#include "src/core/combined_classifier.h"
#include "src/core/human_activity_detector.h"
#include "src/core/staged_pipeline.h"

namespace robodet {
namespace {

SessionObservation MakeSession(int requests = 30) {
  SessionObservation obs;
  obs.request_count = requests;
  return obs;
}

void NotePages(SessionObservation& obs, int pages) {
  for (int i = 0; i < pages; ++i) {
    ++obs.instrumented_pages;
    obs.instrumented_page_indices.push_back(obs.instrumented_pages * 2);
  }
}

TEST(HumanActivityDetectorTest, MouseMeansHuman) {
  HumanActivityDetector detector;
  SessionObservation s = MakeSession();
  s.signals.mouse_event_at = 7;
  const Classification c = detector.Classify(s);
  EXPECT_EQ(c.verdict, Verdict::kHuman);
  EXPECT_EQ(c.decided_at, 7);
  ASSERT_FALSE(c.evidence.empty());
  EXPECT_EQ(c.evidence[0].signal, "mouse_event_key_match");
}

TEST(HumanActivityDetectorTest, WrongKeyDominatesMouse) {
  HumanActivityDetector detector;
  SessionObservation s = MakeSession();
  s.signals.mouse_event_at = 7;
  s.signals.wrong_key_at = 5;  // Blind fetcher hit a decoy AND the real key.
  EXPECT_EQ(detector.Classify(s).verdict, Verdict::kRobot);
}

TEST(HumanActivityDetectorTest, JsWithoutMouseNeedsPatience) {
  HumanActivityDetector detector;  // Patience: 20 requests.
  SessionObservation s = MakeSession(10);
  s.signals.js_executed_at = 2;
  EXPECT_EQ(detector.Classify(s).verdict, Verdict::kUnknown);  // Only 10 requests.
  SessionObservation s2 = MakeSession(25);
  s2.signals.js_executed_at = 2;
  EXPECT_EQ(detector.Classify(s2).verdict, Verdict::kRobot);
}

TEST(HumanActivityDetectorTest, NothingMeansUnknown) {
  HumanActivityDetector detector;
  SessionObservation s = MakeSession();
  EXPECT_EQ(detector.Classify(s).verdict, Verdict::kUnknown);
}

TEST(BrowserTestDetectorTest, HiddenLinkMeansRobot) {
  BrowserTestDetector detector;
  SessionObservation s = MakeSession();
  s.signals.hidden_link_at = 3;
  s.signals.css_probe_at = 2;  // Even though it fetched CSS.
  const Classification c = detector.Classify(s);
  EXPECT_EQ(c.verdict, Verdict::kRobot);
  EXPECT_EQ(c.decided_at, 3);
}

TEST(BrowserTestDetectorTest, UaMismatchMeansRobot) {
  BrowserTestDetector detector;
  SessionObservation s = MakeSession();
  s.signals.ua_mismatch_at = 4;
  EXPECT_EQ(detector.Classify(s).verdict, Verdict::kRobot);
}

TEST(BrowserTestDetectorTest, CssProbeMeansBrowserLike) {
  BrowserTestDetector detector;
  SessionObservation s = MakeSession();
  s.signals.css_probe_at = 2;
  const Classification c = detector.Classify(s);
  EXPECT_EQ(c.verdict, Verdict::kHuman);
  EXPECT_EQ(c.decided_at, 2);
}

TEST(BrowserTestDetectorTest, ProbeDeafMeansRobot) {
  BrowserTestDetector detector;
  SessionObservation s = MakeSession();
  NotePages(s, 6);
  EXPECT_EQ(detector.Classify(s).verdict, Verdict::kRobot);
}

TEST(BrowserTestDetectorTest, FewPagesStillUnknown) {
  BrowserTestDetector detector;
  SessionObservation s = MakeSession();
  NotePages(s, 1);
  EXPECT_EQ(detector.Classify(s).verdict, Verdict::kUnknown);
}

// The paper's set algebra S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM), exhaustive
// over all 8 membership combinations.
struct AlgebraCase {
  bool css;
  bool mouse;
  bool js;
  Verdict expected;
};

class SetAlgebraTest : public ::testing::TestWithParam<AlgebraCase> {};

TEST_P(SetAlgebraTest, MatchesFormula) {
  const AlgebraCase& c = GetParam();
  SessionSignals sig;
  sig.css_probe_at = c.css ? 1 : 0;
  sig.mouse_event_at = c.mouse ? 2 : 0;
  sig.js_executed_at = c.js ? 3 : 0;
  EXPECT_EQ(CombinedClassifier::SetAlgebraVerdict(sig), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SetAlgebraTest,
    ::testing::Values(
        AlgebraCase{false, false, false, Verdict::kRobot},
        AlgebraCase{true, false, false, Verdict::kHuman},   // CSS-only (JS off).
        AlgebraCase{false, true, false, Verdict::kHuman},   // Mouse proof.
        AlgebraCase{true, true, false, Verdict::kHuman},
        AlgebraCase{false, false, true, Verdict::kRobot},   // JS, no mouse.
        AlgebraCase{true, false, true, Verdict::kRobot},    // CSS+JS, no mouse.
        AlgebraCase{false, true, true, Verdict::kHuman},
        AlgebraCase{true, true, true, Verdict::kHuman}));

TEST(CombinedClassifierTest, OnlineMousewinsOverProbeDeaf) {
  CombinedClassifier classifier;
  SessionObservation s = MakeSession();
  NotePages(s, 10);
  s.signals.mouse_event_at = 8;
  EXPECT_EQ(classifier.ClassifyOnline(s).verdict, Verdict::kHuman);
}

TEST(CombinedClassifierTest, OnlineCssWithJsStaysUndecidedUntilPatience) {
  CombinedClassifier classifier;
  SessionObservation s = MakeSession(10);
  s.signals.css_probe_at = 2;
  s.signals.js_executed_at = 3;
  EXPECT_EQ(classifier.ClassifyOnline(s).verdict, Verdict::kUnknown);
  SessionObservation s2 = MakeSession(30);
  s2.signals.css_probe_at = 2;
  s2.signals.js_executed_at = 3;
  EXPECT_EQ(classifier.ClassifyOnline(s2).verdict, Verdict::kRobot);
}

TEST(CombinedClassifierTest, OnlineCssOnlyIsHuman) {
  CombinedClassifier classifier;
  SessionObservation s = MakeSession(10);
  s.signals.css_probe_at = 4;
  EXPECT_EQ(classifier.ClassifyOnline(s).verdict, Verdict::kHuman);
}

TEST(StagedPipelineTest, BrowserTestDecidesFirst) {
  StagedPipeline pipeline;
  SessionObservation s = MakeSession();
  s.signals.hidden_link_at = 2;
  const auto decision = pipeline.Decide(s);
  EXPECT_EQ(decision.stage, 1);
  EXPECT_EQ(decision.classification.verdict, Verdict::kRobot);
}

TEST(StagedPipelineTest, MouseEvidenceBeatsStageOrder) {
  StagedPipeline pipeline;
  SessionObservation s = MakeSession();
  NotePages(s, 10);  // Probe-deaf, stage 1 would say robot...
  s.signals.mouse_event_at = 5;  // ...but there is mouse proof.
  const auto decision = pipeline.Decide(s);
  EXPECT_EQ(decision.stage, 2);
  EXPECT_EQ(decision.classification.verdict, Verdict::kHuman);
}

TEST(StagedPipelineTest, FallbackConsultedForBoundaryCases) {
  int fallback_calls = 0;
  StagedPipeline pipeline([&fallback_calls](const SessionObservation&) {
    ++fallback_calls;
    return Verdict::kRobot;
  });
  // No signals at all and no probe-carrying pages, at the 40-request
  // escalation point.
  SessionObservation s = MakeSession(40);
  const auto decision = pipeline.Decide(s);
  EXPECT_EQ(fallback_calls, 1);
  EXPECT_EQ(decision.stage, 3);
  EXPECT_EQ(decision.classification.verdict, Verdict::kRobot);
}

TEST(StagedPipelineTest, FallbackNotConsultedTooEarly) {
  int fallback_calls = 0;
  StagedPipeline pipeline([&fallback_calls](const SessionObservation&) {
    ++fallback_calls;
    return Verdict::kRobot;
  });
  SessionObservation s = MakeSession(39);  // One request short of escalation.
  const auto decision = pipeline.Decide(s);
  EXPECT_EQ(fallback_calls, 0);
  EXPECT_EQ(decision.stage, 0);
  EXPECT_EQ(decision.classification.verdict, Verdict::kUnknown);
}

}  // namespace
}  // namespace robodet
