#include "src/core/browser_test_detector.h"

namespace robodet {
namespace {

// Declare "not a standard browser" only after this many instrumented pages
// went by with no CSS probe fetch.
constexpr int kProbeIgnorePatience = 5;

}  // namespace

Classification BrowserTestDetector::Classify(const SessionObservation& obs) const {
  Classification out;
  const SessionSignals& sig = obs.signals;

  if (sig.FollowedHiddenLink()) {
    out.verdict = Verdict::kRobot;
    out.decided_at = sig.hidden_link_at;
    out.evidence.push_back(
        {"browser_test", "hidden_link_followed", sig.hidden_link_at, Verdict::kRobot});
    return out;
  }
  if (sig.UaMismatch()) {
    out.verdict = Verdict::kRobot;
    out.decided_at = sig.ua_mismatch_at;
    out.evidence.push_back(
        {"browser_test", "browser_type_mismatch", sig.ua_mismatch_at, Verdict::kRobot});
    return out;
  }
  if (sig.FetchedRobotsTxt()) {
    // A /robots.txt fetch is robot self-identification. Standard browsers
    // never request it; robots that do are at least honest.
    out.verdict = Verdict::kRobot;
    out.decided_at = sig.robots_txt_at;
    out.evidence.push_back(
        {"browser_test", "fetched_robots_txt", sig.robots_txt_at, Verdict::kRobot});
    return out;
  }
  if (sig.DownloadedCssProbe()) {
    out.verdict = Verdict::kHuman;
    out.decided_at = sig.css_probe_at;
    out.evidence.push_back(
        {"browser_test", "css_probe_fetched", sig.css_probe_at, Verdict::kHuman});
    return out;
  }
  if (sig.DownloadedAudioProbe()) {
    out.verdict = Verdict::kHuman;
    out.decided_at = sig.audio_probe_at;
    out.evidence.push_back(
        {"browser_test", "audio_probe_fetched", sig.audio_probe_at, Verdict::kHuman});
    return out;
  }
  if (obs.instrumented_pages >= kProbeIgnorePatience) {
    // Served N probe-carrying pages, fetched none: goal-oriented robot that
    // skips presentation objects. The verdict was reachable the moment the
    // N-th probe-carrying page went by unfetched.
    int decided = obs.InstrumentedPageRequestIndex(kProbeIgnorePatience);
    if (decided == 0) {
      decided = obs.request_count;
    }
    out.verdict = Verdict::kRobot;
    out.decided_at = decided;
    out.evidence.push_back(
        {"browser_test", "ignored_all_css_probes", decided, Verdict::kRobot});
    return out;
  }
  out.verdict = Verdict::kUnknown;
  return out;
}

}  // namespace robodet
