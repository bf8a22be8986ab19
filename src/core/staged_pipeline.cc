#include "src/core/staged_pipeline.h"

namespace robodet {
namespace {

// Consult stage 3 only once the session has this many requests.
constexpr int kEscalateAfter = 40;

}  // namespace

StagedPipeline::Decision StagedPipeline::Decide(const SessionObservation& obs) const {
  Decision out;

  // Hard evidence from the activity detector trumps stage ordering in both
  // directions: a key match proves a human even if the browser test thinks
  // otherwise, and a wrong-key (decoy) fetch proves a robot even if it
  // politely downloaded the CSS probe to blend in. The *staging* is about
  // latency (which check can decide earliest), not about precedence.
  Classification activity = human_activity_.Classify(obs);
  if (activity.verdict != Verdict::kUnknown) {
    out.classification = std::move(activity);
    out.stage = 2;
    return out;
  }

  Classification browser = browser_test_.Classify(obs);
  if (browser.verdict != Verdict::kUnknown) {
    out.classification = std::move(browser);
    out.stage = 1;
    return out;
  }
  if (fallback_ && obs.request_count >= kEscalateAfter) {
    const Verdict v = fallback_(obs);
    if (v != Verdict::kUnknown) {
      out.classification.verdict = v;
      out.classification.decided_at = obs.request_count;
      out.classification.evidence.push_back(
          {"staged_fallback", "ml_judge", obs.request_count, v});
      out.stage = 3;
      return out;
    }
  }
  out.classification.verdict = Verdict::kUnknown;
  return out;
}

}  // namespace robodet
