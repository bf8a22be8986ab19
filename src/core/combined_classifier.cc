#include "src/core/combined_classifier.h"

namespace robodet {

Verdict CombinedClassifier::SetAlgebraVerdict(const SessionSignals& signals) {
  const bool in_css = InCssSet(signals);
  const bool in_mm = InMouseSet(signals);
  const bool in_js = InJsSet(signals);
  const bool in_human = (in_css || in_mm) && !(in_js && !in_mm);
  return in_human ? Verdict::kHuman : Verdict::kRobot;
}

void CombinedClassifier::BindMetrics(MetricsRegistry& registry) {
  metrics_.human =
      registry.FindOrCreateCounter("robodet_classify_online_total", {{"verdict", "human"}});
  metrics_.robot =
      registry.FindOrCreateCounter("robodet_classify_online_total", {{"verdict", "robot"}});
  metrics_.unknown =
      registry.FindOrCreateCounter("robodet_classify_online_total", {{"verdict", "unknown"}});
}

Classification CombinedClassifier::ClassifyOnline(const SessionObservation& obs) const {
  Classification out = ClassifyOnlineUncounted(obs);
  switch (out.verdict) {
    case Verdict::kHuman:
      IncIfBound(metrics_.human);
      break;
    case Verdict::kRobot:
      IncIfBound(metrics_.robot);
      break;
    case Verdict::kUnknown:
      IncIfBound(metrics_.unknown);
      break;
  }
  return out;
}

Classification CombinedClassifier::ClassifyOnlineUncounted(const SessionObservation& obs) const {
  // Mouse activity is the strongest human signal — check it first so that a
  // human who once tripped a weak robot heuristic is not misjudged.
  const SessionSignals& sig = obs.signals;
  Classification human = human_activity_.Classify(obs);
  if (human.verdict == Verdict::kHuman) {
    return human;
  }
  Classification browser = browser_test_.Classify(obs);
  if (human.verdict == Verdict::kRobot) {
    // Hard robot evidence from the activity detector (wrong key or
    // JS-no-mouse) dominates a CSS fetch: robots may fetch CSS too.
    return human;
  }
  if (browser.verdict == Verdict::kRobot) {
    return browser;
  }
  if (browser.verdict == Verdict::kHuman && !sig.ExecutedJs()) {
    // CSS probe fetched and no JS signal yet: JS-disabled browser-like
    // client. Human per the set algebra.
    return browser;
  }
  if (browser.verdict == Verdict::kHuman) {
    // CSS fetched, JS executed, no mouse yet: stay undecided until the
    // activity detector's patience runs out.
    Classification out;
    out.verdict = Verdict::kUnknown;
    out.evidence = std::move(browser.evidence);
    return out;
  }
  Classification out;
  out.verdict = Verdict::kUnknown;
  return out;
}

}  // namespace robodet
