// The paper's combined session classifier:
//
//     S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM)
//
// A session is human when it downloaded the CSS probe or produced mouse
// activity, unless it executed JavaScript without ever producing mouse
// activity (definitely a robot). Also provides the *online* variant used
// for request-time decisions, which combines the human-activity and
// browser-test detectors.
#ifndef ROBODET_SRC_CORE_COMBINED_CLASSIFIER_H_
#define ROBODET_SRC_CORE_COMBINED_CLASSIFIER_H_

#include "src/core/browser_test_detector.h"
#include "src/core/human_activity_detector.h"
#include "src/core/signals.h"
#include "src/core/verdict.h"

namespace robodet {

class CombinedClassifier {
 public:
  // The set-algebra verdict over a finished session. Never kUnknown: the
  // paper labels "all other sessions as belonging to robots".
  static Verdict SetAlgebraVerdict(const SessionSignals& signals);

  // Membership helpers matching Table 1's row definitions.
  static bool InCssSet(const SessionSignals& s) { return s.DownloadedCssProbe(); }
  static bool InMouseSet(const SessionSignals& s) { return s.MouseActivity(); }
  static bool InJsSet(const SessionSignals& s) { return s.ExecutedJs(); }

  // Online classification for request-time enforcement: robot evidence
  // (wrong key, hidden link, UA mismatch, JS-without-mouse, probe-deaf)
  // wins over human-leaning evidence, mouse activity wins over everything.
  Classification ClassifyOnline(const SessionObservation& obs) const;

 private:
  HumanActivityDetector human_activity_;
  BrowserTestDetector browser_test_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_CORE_COMBINED_CLASSIFIER_H_
