// Staged detection (§4.1's "more practical solution may combine multiple
// approaches in a staged manner — making quick decisions by fast analysis,
// then perform a careful decision algorithm for boundary cases"). Stage 1
// is the cheap browser test; stage 2 the human-activity detector; stage 3
// an optional pluggable judge (e.g. the AdaBoost model) consulted only for
// sessions the first two stages leave undecided after 40 requests.
#ifndef ROBODET_SRC_CORE_STAGED_PIPELINE_H_
#define ROBODET_SRC_CORE_STAGED_PIPELINE_H_

#include <functional>

#include "src/core/browser_test_detector.h"
#include "src/core/human_activity_detector.h"
#include "src/core/signals.h"
#include "src/core/verdict.h"

namespace robodet {

class StagedPipeline {
 public:
  struct Decision {
    Classification classification;
    // 0 = undecided, 1 = browser test, 2 = human activity, 3 = fallback.
    int stage = 0;
  };

  using FallbackJudge = std::function<Verdict(const SessionObservation&)>;

  explicit StagedPipeline(FallbackJudge fallback = nullptr) : fallback_(std::move(fallback)) {}

  Decision Decide(const SessionObservation& obs) const;

 private:
  BrowserTestDetector browser_test_;
  HumanActivityDetector human_activity_;
  FallbackJudge fallback_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_CORE_STAGED_PIPELINE_H_
