// Standard-browser testing (§2.2): fast behavioural checks that do not
// need JavaScript on the client. Fetching the injected per-page CSS probe
// is browser-like; following the invisible link trap, echoing a runtime
// agent different from the User-Agent header, or ignoring every probe over
// many pages are robot signatures. The User-Agent header itself is ignored
// (commonly forged).
#ifndef ROBODET_SRC_CORE_BROWSER_TEST_DETECTOR_H_
#define ROBODET_SRC_CORE_BROWSER_TEST_DETECTOR_H_

#include "src/core/signals.h"
#include "src/core/verdict.h"

namespace robodet {

class BrowserTestDetector {
 public:
  struct Options {
    // Declare "not a standard browser" only after this many instrumented
    // pages went by with no CSS probe fetch.
    int probe_ignore_patience = 5;
  };

  BrowserTestDetector();
  explicit BrowserTestDetector(Options options) : options_(options) {}

  Classification Classify(const SessionObservation& obs) const;

 private:
  Options options_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_CORE_BROWSER_TEST_DETECTOR_H_
