#include "src/core/combined_classifier.h"

namespace robodet {

Verdict CombinedClassifier::SetAlgebraVerdict(const SessionSignals& signals) {
  const bool in_css = InCssSet(signals);
  const bool in_mm = InMouseSet(signals);
  const bool in_js = InJsSet(signals);
  const bool in_human = (in_css || in_mm) && !(in_js && !in_mm);
  return in_human ? Verdict::kHuman : Verdict::kRobot;
}

Classification CombinedClassifier::ClassifyOnline(const SessionObservation& obs) const {
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
