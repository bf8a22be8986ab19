// The shared vocabulary between the instrumenting proxy (which *produces*
// observations) and the detectors (which *consume* them): per-request
// events and per-session first-detection signal indices.
#ifndef ROBODET_SRC_CORE_SIGNALS_H_
#define ROBODET_SRC_CORE_SIGNALS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/http/content_type.h"
#include "src/util/clock.h"

namespace robodet {

// Compact per-request record. The ML feature extractor aggregates these;
// keeping them per-request (rather than as running counters only) is what
// lets Figure 4 build classifiers "at the first N requests".
struct RequestEvent {
  ResourceKind kind = ResourceKind::kOther;
  uint8_t status_class = 2;  // 2, 3, 4 or 5.
  bool is_head = false;
  bool has_referrer = false;
  // Referrer named a URL this session was never served (referrer spam
  // signature).
  bool unseen_referrer = false;
  // Requested URL was an embedded object of a previously served page.
  bool is_embedded = false;
  // Requested URL was a link of a previously served page.
  bool is_link_follow = false;
  bool is_favicon = false;
};
static_assert(sizeof(RequestEvent) == 8, "a session keeps up to 256 of these");

// First-detection request indices, 1-based; 0 means "never observed".
// One per signal of Table 1 / Figure 2.
struct SessionSignals {
  int css_probe_at = 0;      // Downloaded an injected CSS probe.
  int js_download_at = 0;    // Downloaded the injected beacon script file.
  int js_executed_at = 0;    // UA-echo stylesheet fetched: executed JS.
  int mouse_event_at = 0;    // Beacon image with the correct key k.
  int wrong_key_at = 0;      // Beacon image with a wrong/decoy key.
  int hidden_link_at = 0;    // Followed the invisible link trap.
  int ua_mismatch_at = 0;    // Echoed runtime agent != User-Agent header.
  int captcha_passed_at = 0;
  int captcha_failed_at = 0;
  // Fetched /robots.txt — a protocol-compliant self-identification; humans
  // essentially never request it (§5: the exclusion protocol is advisory,
  // but a client that consults it is certainly automated).
  int robots_txt_at = 0;
  // Silent-audio probe fetched (§2.2's alternative to the CSS probe).
  int audio_probe_at = 0;
  // §4.1 extension: beacon hit whose input event carried a valid hardware
  // attestation (trusted input architecture).
  int attested_mouse_at = 0;
  // Beacon key matched but attestation was required and missing/invalid:
  // a synthesized event.
  int unattested_event_at = 0;

  // Lowercased, sanitized agent string the client's *runtime* reported via
  // the UA-echo script (vs. the forgeable header).
  std::string ua_echo_agent;

  bool DownloadedCssProbe() const { return css_probe_at > 0; }
  bool DownloadedAudioProbe() const { return audio_probe_at > 0; }
  bool ExecutedJs() const { return js_executed_at > 0; }
  bool MouseActivity() const { return mouse_event_at > 0; }
  bool WrongBeaconKey() const { return wrong_key_at > 0; }
  bool FollowedHiddenLink() const { return hidden_link_at > 0; }
  bool UaMismatch() const { return ua_mismatch_at > 0; }
  bool PassedCaptcha() const { return captcha_passed_at > 0; }
  bool FetchedRobotsTxt() const { return robots_txt_at > 0; }
  bool UnattestedEvent() const { return unattested_event_at > 0; }
};

// The one list of SessionSignals' first-detection indices: each one's name
// (its sessions-CSV column) and field, in declaration order. The state
// file's record codec, the sessions CSV and the cluster merge iterate it, so
// a signal added above is added here and nowhere else. The order is the
// persisted byte order: adding or moving an entry changes the state-file
// format (persistence::kFormatVersion).
struct SignalIndex {
  std::string_view name;
  int SessionSignals::*field;
};

inline constexpr SignalIndex kSignalIndices[] = {
    {"css_probe_at", &SessionSignals::css_probe_at},
    {"js_download_at", &SessionSignals::js_download_at},
    {"js_executed_at", &SessionSignals::js_executed_at},
    {"mouse_event_at", &SessionSignals::mouse_event_at},
    {"wrong_key_at", &SessionSignals::wrong_key_at},
    {"hidden_link_at", &SessionSignals::hidden_link_at},
    {"ua_mismatch_at", &SessionSignals::ua_mismatch_at},
    {"captcha_passed_at", &SessionSignals::captcha_passed_at},
    {"captcha_failed_at", &SessionSignals::captcha_failed_at},
    {"robots_txt_at", &SessionSignals::robots_txt_at},
    {"audio_probe_at", &SessionSignals::audio_probe_at},
    {"attested_mouse_at", &SessionSignals::attested_mouse_at},
    {"unattested_event_at", &SessionSignals::unattested_event_at},
};

// Everything a detector is allowed to look at. Live sessions expose one;
// archived SessionRecords carry one, so the same classifiers run online at
// the proxy and offline over experiment logs.
struct SessionObservation {
  SessionSignals signals;
  int request_count = 0;
  int instrumented_pages = 0;
  // Request indices (1-based) at which instrumented pages were served,
  // capped; lets the browser test date its probe-deaf verdict.
  std::vector<int> instrumented_page_indices;

  // Index of the n-th (1-based) instrumented page, 0 if fewer than n.
  int InstrumentedPageRequestIndex(int n) const {
    if (n <= 0 || static_cast<size_t>(n) > instrumented_page_indices.size()) {
      return 0;
    }
    return instrumented_page_indices[static_cast<size_t>(n) - 1];
  }
};

// Table 1 analyzes only sessions "that have sent more than 10 requests".
// The proxy counts a closed session's verdict under the same filter, so its
// robodet_verdict_total series and the offline tables see the same sessions.
inline constexpr int kTable1MinRequests = 10;

}  // namespace robodet

#endif  // ROBODET_SRC_CORE_SIGNALS_H_
