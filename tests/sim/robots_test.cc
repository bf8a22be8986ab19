#include "src/sim/robots.h"

#include <gtest/gtest.h>

#include "src/core/combined_classifier.h"
#include "src/js/generator.h"
#include "tests/sim/sim_test_util.h"

namespace robodet {
namespace {

ClientIdentity BotIdentity(const char* type, uint32_t ip = 7,
                           const char* ua = "Mozilla/4.0 (compatible; MSIE 6.0)") {
  ClientIdentity id;
  id.ip = IpAddress(ip);
  id.user_agent = ua;
  id.is_human = false;
  id.type_name = type;
  return id;
}

RobotConfig FastRobot(int max_requests = 80) {
  RobotConfig config;
  config.request_interval_mean = 50;
  config.max_requests = max_requests;
  return config;
}

TEST(RobotsTest, CrawlerTripsHiddenLinkAndIgnoresCss) {
  SimRig rig;
  CrawlerClient crawler(BotIdentity("crawler"), Rng(1), &rig.site, FastRobot(120));
  rig.RunToCompletion(crawler);
  const SessionSignals& sig = rig.SessionFor(crawler)->signals();
  EXPECT_GT(sig.hidden_link_at, 0);
  EXPECT_EQ(sig.css_probe_at, 0);
  EXPECT_EQ(sig.mouse_event_at, 0);
  EXPECT_EQ(sig.js_executed_at, 0);
}

TEST(RobotsTest, PoliteCrawlerFetchesRobotsTxtFirst) {
  SimRig rig;
  CrawlerClient crawler(BotIdentity("polite", 8, "FriendlyCrawler/1.0"), Rng(2), &rig.site,
                        FastRobot(40), /*polite=*/true);
  rig.RunToCompletion(crawler);
  const auto& events = rig.SessionFor(crawler)->events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, ResourceKind::kRobotsTxt);
}

TEST(RobotsTest, EmailHarvesterIsHtmlOnly) {
  SimRig rig;
  EmailHarvesterClient bot(BotIdentity("harvester", 9), Rng(3), &rig.site, FastRobot());
  rig.RunToCompletion(bot);
  for (const RequestEvent& e : rig.SessionFor(bot)->events()) {
    EXPECT_TRUE(e.kind == ResourceKind::kHtml || e.kind == ResourceKind::kCgi)
        << static_cast<int>(e.kind);
  }
  EXPECT_EQ(rig.SessionFor(bot)->signals().css_probe_at, 0);
}

TEST(RobotsTest, ReferrerSpammerShowsUnseenReferrers) {
  SimRig rig;
  ReferrerSpammerClient bot(BotIdentity("spammer", 10), Rng(4), &rig.site, FastRobot());
  rig.RunToCompletion(bot);
  int unseen = 0;
  int with_referrer = 0;
  const auto& events = rig.SessionFor(bot)->events();
  ASSERT_FALSE(events.empty());
  for (const RequestEvent& e : events) {
    with_referrer += e.has_referrer ? 1 : 0;
    unseen += e.unseen_referrer ? 1 : 0;
  }
  // After a short reconnaissance phase (organic browsing), the session is
  // dominated by forged-referrer spam hits; audit revisits (~25% of spam
  // hits) and the recon prefix blur the early-window UNSEEN REFERRER %.
  ASSERT_GT(with_referrer, 0);
  const double unseen_fraction = static_cast<double>(unseen) / with_referrer;
  EXPECT_GT(unseen_fraction, 0.4);
  EXPECT_LT(unseen_fraction, 1.0);
}

TEST(RobotsTest, ClickFraudHammersCgi) {
  SimRig rig;
  ClickFraudClient bot(BotIdentity("fraud", 11), Rng(5), &rig.site, FastRobot());
  rig.RunToCompletion(bot);
  const auto& events = rig.SessionFor(bot)->events();
  ASSERT_GT(events.size(), 2u);
  // First request loads the ad-bearing landing page (no referrer)...
  EXPECT_EQ(events[0].kind, ResourceKind::kHtml);
  EXPECT_FALSE(events[0].has_referrer);
  // ... then clicks hit CGI with a previously visited landing page as the
  // referrer; every ~10 clicks the bot rotates to a fresh landing page.
  int cgi = 0;
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].kind == ResourceKind::kCgi) {
      ++cgi;
      EXPECT_TRUE(events[i].has_referrer);
      EXPECT_FALSE(events[i].unseen_referrer);
    } else {
      EXPECT_EQ(events[i].kind, ResourceKind::kHtml);  // Landing rotation.
    }
  }
  EXPECT_GT(cgi, static_cast<int>(events.size()) / 2);
}

TEST(RobotsTest, VulnScannerGenerates404s) {
  SimRig rig;
  VulnScannerClient bot(BotIdentity("scanner", 12), Rng(6), &rig.site, FastRobot(40));
  rig.RunToCompletion(bot);
  int errors = 0;
  for (const RequestEvent& e : rig.SessionFor(bot)->events()) {
    errors += e.status_class == 4 ? 1 : 0;
  }
  EXPECT_GT(errors, 10);
}

TEST(RobotsTest, OfflineBrowserFetchesCssButTripsHiddenLink) {
  SimRig rig;
  OfflineBrowserClient bot(BotIdentity("offline", 13), Rng(7), &rig.site, FastRobot(200));
  rig.RunToCompletion(bot);
  const SessionSignals& sig = rig.SessionFor(bot)->signals();
  EXPECT_GT(sig.css_probe_at, 0);     // Passes the CSS test...
  EXPECT_GT(sig.hidden_link_at, 0);   // ...but the trap still catches it.
  EXPECT_GT(sig.js_download_at, 0);   // Downloads scripts...
  EXPECT_EQ(sig.js_executed_at, 0);   // ...without executing them.
  EXPECT_EQ(sig.mouse_event_at, 0);
}

TEST(RobotsTest, SmartScrapeAllAlwaysTripsDecoy) {
  SimRig rig;
  SmartBotConfig config;
  config.robot = FastRobot(60);
  config.mode = SmartBotMode::kScrapeAll;
  SmartBotClient bot(BotIdentity("scrape_all", 14), Rng(8), &rig.site, config);
  rig.RunToCompletion(bot);
  const SessionSignals& sig = rig.SessionFor(bot)->signals();
  EXPECT_GT(sig.wrong_key_at, 0);  // m >= 1 decoys guarantee a wrong hit.
}

TEST(RobotsTest, SmartScrapeOneCaughtWithDecoyProbability) {
  // Over many independent bots, the fraction caught approaches m/(m+1)
  // (m = 4 decoys by default -> 80%).
  int caught = 0;
  int evaded = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SimRig rig(500 + trial);
    SmartBotConfig config;
    config.robot = FastRobot(24);
    config.mode = SmartBotMode::kScrapeOne;
    SmartBotClient bot(BotIdentity("scrape_one", 15), Rng(100 + trial), &rig.site, config);
    rig.RunToCompletion(bot);
    const SessionSignals& sig = rig.SessionFor(bot)->signals();
    if (sig.wrong_key_at > 0) {
      ++caught;
    } else if (sig.mouse_event_at > 0) {
      ++evaded;
    }
  }
  EXPECT_GT(caught, 0);
  // Each page view is an independent m/(m+1) trial, so across several pages
  // nearly every session trips at least one decoy.
  EXPECT_GT(caught, evaded);
}

TEST(RobotsTest, JsNoEventsBotIsJsWithoutMouse) {
  SimRig rig;
  SmartBotConfig config;
  config.robot = FastRobot(60);
  config.mode = SmartBotMode::kInterpret;
  config.synthesize_events = false;
  config.engine_agent = "Mozilla/4.0 (compatible; MSIE 6.0)";  // Matches header.
  SmartBotClient bot(BotIdentity("js_bot", 16), Rng(9), &rig.site, config);
  rig.RunToCompletion(bot);
  const SessionSignals& sig = rig.SessionFor(bot)->signals();
  EXPECT_GT(sig.js_executed_at, 0);
  EXPECT_EQ(sig.mouse_event_at, 0);
  EXPECT_EQ(sig.wrong_key_at, 0);
  EXPECT_EQ(sig.ua_mismatch_at, 0);
  // The set algebra labels it robot (S_JS - S_MM).
  EXPECT_EQ(CombinedClassifier::SetAlgebraVerdict(sig), Verdict::kRobot);
}

TEST(RobotsTest, FullMimicBotEvadesDetection) {
  SimRig rig;
  SmartBotConfig config;
  config.robot = FastRobot(60);
  config.mode = SmartBotMode::kInterpret;
  config.synthesize_events = true;  // The §4.1 future bot.
  config.engine_agent = "Mozilla/4.0 (compatible; MSIE 6.0)";
  SmartBotClient bot(BotIdentity("mimic", 17), Rng(10), &rig.site, config);
  rig.RunToCompletion(bot);
  const SessionSignals& sig = rig.SessionFor(bot)->signals();
  EXPECT_GT(sig.mouse_event_at, 0);  // Synthetic events produce real beacons.
  EXPECT_EQ(sig.wrong_key_at, 0);
  // The paper's own conclusion: this bot defeats the mechanism.
  EXPECT_EQ(CombinedClassifier::SetAlgebraVerdict(sig), Verdict::kHuman);
}

TEST(RobotsTest, MisalignedEngineTripsUaMismatch) {
  SimRig rig;
  SmartBotConfig config;
  config.robot = FastRobot(60);
  config.mode = SmartBotMode::kInterpret;
  config.engine_agent = "CustomBotEngine/0.9";  // Header says MSIE.
  SmartBotClient bot(BotIdentity("sloppy_bot", 18), Rng(11), &rig.site, config);
  rig.RunToCompletion(bot);
  EXPECT_GT(rig.SessionFor(bot)->signals().ua_mismatch_at, 0);
}

TEST(RobotsTest, LinkCheckerIsHeadHeavyAndHonest) {
  SimRig rig;
  LinkCheckerClient bot(BotIdentity("checker", 23, "LinkChecker/2.1"), Rng(24), &rig.site,
                        FastRobot(100));
  rig.RunToCompletion(bot);
  const SessionState* session = rig.SessionFor(bot);
  int heads = 0;
  for (const RequestEvent& e : session->events()) {
    heads += e.is_head ? 1 : 0;
  }
  // The session is dominated by HEAD verifications — the Table-2 HEAD %
  // feature's natural producer.
  EXPECT_GT(heads * 2, session->request_count());
  // It never renders, so it is probe-deaf like other goal-oriented robots.
  EXPECT_EQ(session->signals().css_probe_at, 0);
  EXPECT_EQ(session->signals().mouse_event_at, 0);
}

TEST(RobotsTest, BulletinSpamFloodsTheBoard) {
  SimRig rig;
  BulletinSpamClient bot(BotIdentity("board_spam", 21), Rng(22), &rig.site, FastRobot(60));
  rig.RunToCompletion(bot);
  // The board accumulated spam posts.
  Request board;
  board.url = Url::Make(rig.site.host(), SiteModel::BoardPath());
  const std::string page = rig.origin->Handle(board).body;
  size_t posts_shown = 0;
  for (size_t at = page.find("<p class=\"post\">"); at != std::string::npos;
       at = page.find("<p class=\"post\">", at + 1)) {
    ++posts_shown;
  }
  EXPECT_GT(posts_shown, 40u);
  // The session is CGI/POST heavy with self-consistent referrers, and
  // probe-deaf (it loaded one instrumented page, the board, and ignored
  // every probe).
  const SessionState* session = rig.SessionFor(bot);
  int posts = 0;
  for (const RequestEvent& e : session->events()) {
    posts += (e.kind == ResourceKind::kCgi && !e.is_head) ? 1 : 0;
    EXPECT_FALSE(e.unseen_referrer);
  }
  EXPECT_GT(posts, 40);
  EXPECT_EQ(session->signals().css_probe_at, 0);
}

TEST(RobotsTest, ZombieFloodIsFastAndProbeDeaf) {
  SimRig rig;
  RobotConfig config;
  config.request_interval_mean = 30;
  config.max_requests = 120;
  ZombieFloodClient zombie(BotIdentity("zombie", 19), Rng(20), &rig.site, config);
  rig.RunToCompletion(zombie);
  const SessionState* session = rig.SessionFor(zombie);
  EXPECT_GE(session->request_count(), 100);
  EXPECT_EQ(session->signals().css_probe_at, 0);
  EXPECT_EQ(session->signals().mouse_event_at, 0);
  // The flood is fast enough that the policy's CGI-rate check would trip.
  const TimeMs lifetime = session->last_request_time() - session->first_request_time();
  const double per_minute = static_cast<double>(session->cgi_requests()) /
                            (static_cast<double>(lifetime) / kMinute);
  EXPECT_GT(per_minute, 100.0);
}

TEST(ScrapeUrlsTest, FindsPlainAndSplitUrls) {
  const std::string script =
      "var a = 'http://x.com/a.jpg';"
      "var b = ('http://x' + '.com/b' + '.jpg');"
      "var c = 'not a url';";
  const auto urls = ScrapeUrlsFromScript(script);
  ASSERT_EQ(urls.size(), 2u);
  EXPECT_EQ(urls[0], "http://x.com/a.jpg");
  EXPECT_EQ(urls[1], "http://x.com/b.jpg");
}

TEST(ScrapeUrlsTest, FindsAllBeaconUrlsInGeneratedScript) {
  Rng rng(12);
  BeaconSpec spec;
  spec.host = "e.com";
  spec.path_prefix = "/__rd/";
  spec.real_key = "aa";
  spec.decoy_keys = {"bb", "cc", "dd"};
  spec.obfuscation_level = 2;  // Rename + split strings.
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
  const auto urls = ScrapeUrlsFromScript(beacon.script_source);
  // The scraper reassembles all 4 URLs but cannot tell which is real.
  EXPECT_EQ(urls.size(), 4u);
}

TEST(ScrapeUrlsTest, Level5HidesEverythingFromScrapers) {
  Rng rng(13);
  BeaconSpec spec;
  spec.host = "e.com";
  spec.path_prefix = "/__rd/";
  spec.real_key = "aabb";
  spec.decoy_keys = {"bb", "cc", "dd"};
  spec.obfuscation_level = 5;
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
  EXPECT_TRUE(ScrapeUrlsFromScript(beacon.script_source).empty());
}

TEST(ScrapeUrlsTest, MalformedScriptYieldsNothing) {
  EXPECT_TRUE(ScrapeUrlsFromScript("var x = 'unterminated").empty());
}

}  // namespace
}  // namespace robodet
