#include "src/sim/human_browser.h"

#include <gtest/gtest.h>

#include "tests/sim/sim_test_util.h"

namespace robodet {
namespace {

ClientIdentity HumanIdentity(const BrowserProfile& profile, uint32_t ip = 1) {
  ClientIdentity id;
  id.ip = IpAddress(ip);
  id.user_agent = profile.user_agent;
  id.is_human = true;
  id.type_name = "human";
  return id;
}

HumanConfig FastHuman() {
  HumanConfig config;
  config.min_pages = 5;
  config.max_pages = 8;
  config.mouse_move_prob = 1.0;
  config.think_time_mean = 200;
  config.subfetch_delay = 5;
  return config;
}

TEST(HumanBrowserTest, JsEnabledHumanProducesAllHumanSignals) {
  SimRig rig;
  BrowserProfile profile = StandardBrowserProfiles()[1];  // Firefox, JS on.
  HumanBrowserClient client(HumanIdentity(profile), Rng(5), &rig.site, profile, FastHuman());
  rig.RunToCompletion(client);

  const SessionSignals& sig = rig.SessionFor(client)->signals();
  EXPECT_GT(sig.css_probe_at, 0);
  EXPECT_GT(sig.js_download_at, 0);
  EXPECT_GT(sig.js_executed_at, 0);
  EXPECT_GT(sig.mouse_event_at, 0);
  EXPECT_EQ(sig.wrong_key_at, 0);
  EXPECT_EQ(sig.hidden_link_at, 0);   // Humans never see hidden links.
  EXPECT_EQ(sig.ua_mismatch_at, 0);   // Honest UA.
  EXPECT_GT(client.stats().requests, 10u);
}

TEST(HumanBrowserTest, JsDisabledHumanFetchesCssOnly) {
  SimRig rig;
  BrowserProfile profile = StandardBrowserProfiles()[0];
  profile.js_enabled = false;
  HumanBrowserClient client(HumanIdentity(profile), Rng(6), &rig.site, profile, FastHuman());
  rig.RunToCompletion(client);

  const SessionSignals& sig = rig.SessionFor(client)->signals();
  EXPECT_GT(sig.css_probe_at, 0);
  EXPECT_EQ(sig.js_download_at, 0);
  EXPECT_EQ(sig.js_executed_at, 0);
  EXPECT_EQ(sig.mouse_event_at, 0);
}

TEST(HumanBrowserTest, NoMouseUserExecutesJsButNoBeacon) {
  SimRig rig;
  BrowserProfile profile = StandardBrowserProfiles()[1];
  HumanConfig config = FastHuman();
  config.mouse_move_prob = 0.0;
  HumanBrowserClient client(HumanIdentity(profile), Rng(7), &rig.site, profile, config);
  rig.RunToCompletion(client);

  const SessionSignals& sig = rig.SessionFor(client)->signals();
  EXPECT_GT(sig.js_executed_at, 0);
  EXPECT_EQ(sig.mouse_event_at, 0);
}

TEST(HumanBrowserTest, MouseSignalRequiresCorrectKeyNoWrongKeys) {
  SimRig rig;
  BrowserProfile profile = StandardBrowserProfiles()[2];
  HumanBrowserClient client(HumanIdentity(profile), Rng(8), &rig.site, profile, FastHuman());
  rig.RunToCompletion(client);
  const RegistrySnapshot snapshot = rig.proxy->metrics().Scrape();
  EXPECT_GT(snapshot.CounterValue("robodet_beacon_hits_total", {{"result", "ok"}}), 0u);
  EXPECT_EQ(snapshot.CounterValue("robodet_beacon_hits_total", {{"result", "wrong_key"}}), 0u);
}

TEST(HumanBrowserTest, FetchesFaviconAtMostOnce) {
  // Most browsers have the favicon cached; over a dozen users some fetch
  // it, and none more than once per session.
  int sessions_with_favicon = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SimRig rig(seed);
    BrowserProfile profile = StandardBrowserProfiles()[1];
    HumanBrowserClient client(HumanIdentity(profile), Rng(seed), &rig.site, profile,
                              FastHuman());
    rig.RunToCompletion(client);
    int favicons = 0;
    for (const RequestEvent& e : rig.SessionFor(client)->events()) {
      favicons += e.is_favicon ? 1 : 0;
    }
    EXPECT_LE(favicons, 1) << "seed " << seed;
    sessions_with_favicon += favicons;
  }
  EXPECT_GT(sessions_with_favicon, 0);
  EXPECT_LT(sessions_with_favicon, 12);
}

TEST(HumanBrowserTest, AttemptsCaptchaWhenOffered) {
  ProxyConfig proxy_config;
  proxy_config.enable_captcha = true;
  SimRig rig(11, proxy_config);
  BrowserProfile profile = StandardBrowserProfiles()[1];
  HumanConfig config = FastHuman();
  config.captcha_attempt_prob = 1.0;
  HumanBrowserClient client(HumanIdentity(profile), Rng(10), &rig.site, profile, config);
  rig.RunToCompletion(client);
  EXPECT_GT(rig.SessionFor(client)->signals().captcha_passed_at, 0);
  EXPECT_EQ(
      rig.proxy->metrics().Scrape().CounterValue("robodet_captcha_total", {{"result", "fail"}}),
      0u);
}

TEST(HumanBrowserTest, MultipleBrowserProfilesAllBehave) {
  for (size_t p = 0; p < StandardBrowserProfiles().size(); ++p) {
    SimRig rig(100 + p);
    BrowserProfile profile = StandardBrowserProfiles()[p];
    HumanBrowserClient client(HumanIdentity(profile, 50 + static_cast<uint32_t>(p)),
                              Rng(11 + p), &rig.site, profile, FastHuman());
    rig.RunToCompletion(client);
    const SessionSignals& sig = rig.SessionFor(client)->signals();
    EXPECT_GT(sig.css_probe_at, 0) << profile.name;
    EXPECT_GT(sig.mouse_event_at, 0) << profile.name;
  }
}

}  // namespace
}  // namespace robodet
