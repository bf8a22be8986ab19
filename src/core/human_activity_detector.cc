#include "src/core/human_activity_detector.h"

namespace robodet {
namespace {

// A JS-capable session with no mouse event is only called a robot after it
// has had this many requests' worth of opportunity to move a mouse.
constexpr int kJsNoMousePatience = 20;

}  // namespace

Classification HumanActivityDetector::Classify(const SessionObservation& obs) const {
  Classification out;
  const SessionSignals& sig = obs.signals;

  // Wrong-key evidence dominates: a robot that blindly fetches every
  // embedded object hits the real beacon too, so a key match in the
  // presence of decoy fetches proves nothing.
  if (sig.UnattestedEvent()) {
    // §4.1 extension: a beacon fired with the right key but no hardware
    // attestation while attestation was mandatory is a synthesized input
    // event. Only a proxy that requires attestation records one.
    out.verdict = Verdict::kRobot;
    out.decided_at = sig.unattested_event_at;
    out.evidence.push_back({"human_activity", "unattested_input_event",
                            sig.unattested_event_at, Verdict::kRobot});
    return out;
  }
  if (sig.WrongBeaconKey()) {
    out.verdict = Verdict::kRobot;
    out.decided_at = sig.wrong_key_at;
    out.evidence.push_back(
        {"human_activity", "wrong_beacon_key", sig.wrong_key_at, Verdict::kRobot});
    return out;
  }
  if (sig.MouseActivity()) {
    out.verdict = Verdict::kHuman;
    out.decided_at = sig.mouse_event_at;
    out.evidence.push_back(
        {"human_activity", "mouse_event_key_match", sig.mouse_event_at, Verdict::kHuman});
    return out;
  }
  if (sig.ExecutedJs() && obs.request_count >= kJsNoMousePatience) {
    // Runs our script, never moves the mouse: the S_JS - S_MM set.
    out.verdict = Verdict::kRobot;
    out.decided_at = obs.request_count;
    out.evidence.push_back(
        {"human_activity", "js_executed_no_mouse", sig.js_executed_at, Verdict::kRobot});
    return out;
  }
  out.verdict = Verdict::kUnknown;
  return out;
}

}  // namespace robodet
