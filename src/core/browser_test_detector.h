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
  Classification Classify(const SessionObservation& obs) const;
};

}  // namespace robodet

#endif  // ROBODET_SRC_CORE_BROWSER_TEST_DETECTOR_H_
