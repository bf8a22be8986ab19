// The §2.2 probe variants beyond the CSS file: the silent-audio probe and
// the onclick link hook (the paper's alternative event handler placement),
// exercised end to end through proxy + clients.
#include <gtest/gtest.h>

#include "src/core/browser_test_detector.h"
#include "src/sim/human_browser.h"
#include "tests/sim/sim_test_util.h"

namespace robodet {
namespace {

HumanConfig FastHuman() {
  HumanConfig config;
  config.min_pages = 5;
  config.max_pages = 8;
  config.mouse_move_prob = 1.0;
  config.think_time_mean = 200;
  config.subfetch_delay = 5;
  return config;
}

ProxyConfig WithAudioProbe() {
  ProxyConfig config;
  config.enable_audio_probe = true;
  return config;
}

ClientIdentity HumanIdentity(const BrowserProfile& profile, uint32_t ip) {
  ClientIdentity id;
  id.ip = IpAddress(ip);
  id.user_agent = profile.user_agent;
  id.is_human = true;
  return id;
}

TEST(AudioProbeTest, InjectedAndServed) {
  SimRig rig(401, WithAudioProbe());

  // Fetch a page directly and look for the bgsound probe.
  Request request;
  request.time = 0;
  request.client_ip = IpAddress(1);
  request.url = Url::Make(rig.site.host(), "/p/1.html");
  request.headers.Set("User-Agent", "x");
  const auto page = rig.proxy->Handle(request);
  HtmlDocument doc(page.response.body);
  std::string audio_url;
  for (const EmbedRef& e : doc.EmbeddedObjects()) {
    if (e.kind == EmbedRef::Kind::kAudio) {
      audio_url = e.url;
    }
  }
  ASSERT_FALSE(audio_url.empty());
  EXPECT_NE(audio_url.find("/__rd/ap_"), std::string::npos);

  // Fetching it records the signal.
  Request probe;
  probe.time = 1;
  probe.client_ip = IpAddress(1);
  probe.url = *Url::Parse(audio_url);
  probe.headers.Set("User-Agent", "x");
  const auto served = rig.proxy->Handle(probe);
  EXPECT_EQ(served.response.status, StatusCode::kOk);
  EXPECT_EQ(served.response.ContentType(), "audio/wav");
  SessionState* session = rig.proxy->sessions().Touch({IpAddress(1), "x"}, 2);
  EXPECT_GT(session->signals().audio_probe_at, 0);
}

TEST(AudioProbeTest, CountsAsBrowserLikeEvidence) {
  SessionObservation obs;
  obs.request_count = 20;
  obs.signals.audio_probe_at = 4;
  BrowserTestDetector detector;
  const Classification c = detector.Classify(obs);
  EXPECT_EQ(c.verdict, Verdict::kHuman);
  EXPECT_EQ(c.decided_at, 4);
}

TEST(AudioProbeTest, HumanWithMediaFetchesIt) {
  SimRig rig(402, WithAudioProbe());
  BrowserProfile profile = StandardBrowserProfiles()[0];  // Fetches media.
  HumanBrowserClient human(HumanIdentity(profile, 9), Rng(31), &rig.site, profile,
                           FastHuman());
  rig.RunToCompletion(human);
  EXPECT_GT(rig.SessionFor(human)->signals().audio_probe_at, 0);
}

TEST(AudioProbeTest, ForgedTokenRejected) {
  SimRig rig(403, WithAudioProbe());
  Request probe;
  probe.time = 0;
  probe.client_ip = IpAddress(2);
  probe.url = Url::Make(rig.site.host(), "/__rd/ap_000000000000000000000000.wav");
  probe.headers.Set("User-Agent", "x");
  EXPECT_EQ(rig.proxy->Handle(probe).response.status, StatusCode::kNotFound);
}

// The paper's alternative hook: with hook_links on, a user whose browser
// never fires onmousemove (touchpad-less kiosk, say) still proves human on
// the click that navigates away.
TEST(LinkHookTest, ClickFiresBeaconWithoutMouseMovement) {
  ProxyConfig config;
  config.hook_links = true;
  SimRig rig(404, config);

  BrowserProfile profile = StandardBrowserProfiles()[1];
  HumanConfig human_config = FastHuman();
  human_config.mouse_move_prob = 0.0;  // The body handler never fires...
  HumanBrowserClient human(HumanIdentity(profile, 10), Rng(33), &rig.site, profile,
                           human_config);
  rig.RunToCompletion(human);
  // ...yet the onclick hook, on the navigations that are clicks, still
  // produced a correct-key beacon.
  EXPECT_GT(rig.SessionFor(human)->signals().mouse_event_at, 0);
  EXPECT_EQ(rig.proxy->metrics().Scrape().CounterValue("robodet_beacon_hits_total",
                                                       {{"result", "wrong_key"}}),
            0u);
}

TEST(LinkHookTest, WithoutHookNoBeaconFromClicks) {
  SimRig rig(405);  // hook_links defaults to false.
  BrowserProfile profile = StandardBrowserProfiles()[1];
  HumanConfig human_config = FastHuman();
  human_config.mouse_move_prob = 0.0;
  HumanBrowserClient human(HumanIdentity(profile, 11), Rng(35), &rig.site, profile,
                           human_config);
  rig.RunToCompletion(human);
  EXPECT_EQ(rig.SessionFor(human)->signals().mouse_event_at, 0);
}

}  // namespace
}  // namespace robodet
