// Integration tests for the instrumenting proxy: a hand-driven "client"
// walks the full detection loop against a real site + origin, exactly as
// the simulated clients do, and we assert on the session signals the proxy
// records.
#include "src/proxy/proxy_server.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/html/document.h"
#include "src/js/interpreter.h"
#include "src/site/origin_server.h"

namespace robodet {
namespace {

constexpr char kUa[] = "Mozilla/5.0 (X11; Linux) Gecko/20060101 Firefox/1.5";

class ProxyServerTest : public ::testing::Test {
 protected:
  ProxyServerTest() {
    SiteConfig site_config;
    site_config.num_pages = 10;
    Rng site_rng(3);
    site_ = SiteModel::Generate(site_config, site_rng);
    origin_ = std::make_unique<OriginServer>(&site_);
    UseDecoys(ProxyConfig{}.num_decoys);
  }

  // Replaces the proxy with a fresh one built from `config` for the site.
  void UseConfig(ProxyConfig config) {
    config.host = site_.host();
    proxy_ = std::make_unique<ProxyServer>(
        config, &clock_, [this](const Request& r) { return origin_->Handle(r); }, 77);
  }

  // Replaces the proxy with a fresh one serving `num_decoys` decoys.
  void UseDecoys(size_t num_decoys) {
    ProxyConfig config;
    config.num_decoys = num_decoys;
    UseConfig(config);
  }

  ProxyServer::Result Get(const std::string& path_or_url, IpAddress ip = IpAddress(1),
                          const std::string& query = "") {
    Request r;
    r.time = clock_.Now();
    r.client_ip = ip;
    if (path_or_url.rfind("http", 0) == 0) {
      r.url = *Url::Parse(path_or_url);
    } else {
      r.url = Url::Make(site_.host(), path_or_url, query);
    }
    r.headers.Set("User-Agent", kUa);
    clock_.Advance(100);
    ProxyServer::Result result = proxy_->Handle(r);
    // Whichever way the request left Handle, the verdict is the session's
    // online verdict as this request left it.
    const SessionState& session = *proxy_->sessions().Touch(SessionKey{ip, kUa}, r.time);
    EXPECT_EQ(result.verdict, CombinedClassifier{}.ClassifyOnline(session.observation()).verdict)
        << path_or_url;
    return result;
  }

  SessionState* Session(IpAddress ip = IpAddress(1)) {
    return proxy_->sessions().Touch(SessionKey{ip, kUa}, clock_.Now());
  }

  // Gets enough pages that the session passes Table 1's request filter.
  void GetPastTable1Filter() {
    for (int i = 0; i <= kTable1MinRequests; ++i) {
      Get(SiteModel::PagePath(static_cast<PageId>(i % 10)));
    }
  }

  uint64_t Count(std::string_view name, const Labels& labels = {}) const {
    return proxy_->metrics().Scrape().CounterValue(name, labels);
  }

  // A counter summed over all its label sets.
  uint64_t SeriesTotal(std::string_view name) const {
    uint64_t total = 0;
    for (const MetricSnapshot& m : proxy_->metrics().Scrape().metrics) {
      total += m.name == name ? m.counter : 0;
    }
    return total;
  }

  // A human's whole detection loop from IP 1: the page, the beacon script,
  // the CSS probe, the UA echo and the beacon fired by the mouse handler.
  void DriveHumanBeaconLoop() {
    // 1. Load the page.
    const auto page = Get("/p/1.html");
    HtmlDocument doc(page.response.body);

    // 2. Fetch the beacon script (counts as JS download).
    std::string script_url;
    std::string probe_url;
    for (const EmbedRef& e : doc.EmbeddedObjects()) {
      if (e.url.find("/__rd/js_") != std::string::npos) {
        script_url = e.url;
      }
      if (e.url.find("/__rd/cp_") != std::string::npos) {
        probe_url = e.url;
      }
    }
    ASSERT_FALSE(script_url.empty());
    const auto script = Get(script_url);
    ASSERT_EQ(script.response.status, StatusCode::kOk);
    EXPECT_EQ(script.response.ContentType(), "application/javascript");

    // 3. Fetch the CSS probe.
    ASSERT_FALSE(probe_url.empty());
    EXPECT_EQ(Get(probe_url).response.status, StatusCode::kOk);

    // 4. Execute script + inline UA echo, then the mouse handler.
    JsInterpreter interp(JsInterpreter::Config{kUa, 300000});
    ASSERT_TRUE(interp.Run(script.response.body).ok);
    for (const std::string& code : doc.InlineScripts()) {
      ASSERT_TRUE(interp.Run(code).ok);
    }
    // Fetch the UA-echo stylesheet that document.write produced.
    ASSERT_FALSE(interp.document_writes().empty());
    HtmlDocument written(interp.document_writes()[0]);
    ASSERT_FALSE(written.EmbeddedObjects().empty());
    EXPECT_EQ(Get(written.EmbeddedObjects()[0].url).response.status, StatusCode::kOk);

    interp.ClearObservations();
    ASSERT_TRUE(interp.RunHandler(doc.BodyEventHandler()).ok);
    ASSERT_EQ(interp.fetched_urls().size(), 1u);
    EXPECT_EQ(Get(interp.fetched_urls()[0]).response.status, StatusCode::kOk);
  }

  SimClock clock_;
  SiteModel site_;
  std::unique_ptr<OriginServer> origin_;
  std::unique_ptr<ProxyServer> proxy_;
};

TEST_F(ProxyServerTest, InstrumentsHtmlPages) {
  const auto result = Get("/p/1.html");
  ASSERT_EQ(result.response.status, StatusCode::kOk);
  HtmlDocument doc(result.response.body);
  // Beacon script + css probe + original site css/js.
  bool has_beacon_script = false;
  bool has_css_probe = false;
  for (const EmbedRef& e : doc.EmbeddedObjects()) {
    has_beacon_script |= e.url.find("/__rd/js_") != std::string::npos;
    has_css_probe |= e.url.find("/__rd/cp_") != std::string::npos;
  }
  EXPECT_TRUE(has_beacon_script);
  EXPECT_TRUE(has_css_probe);
  EXPECT_FALSE(doc.BodyEventHandler().empty());
  // Hidden link present.
  bool hidden = false;
  for (const LinkRef& link : doc.Links()) {
    hidden |= link.hidden && link.href.find("/__rd/hl_") != std::string::npos;
  }
  EXPECT_TRUE(hidden);
  // UA-echo inline script present.
  EXPECT_FALSE(doc.InlineScripts().empty());
  // No-cache headers set.
  EXPECT_EQ(result.response.headers.Get("Cache-Control"), "no-cache, no-store");
}

TEST_F(ProxyServerTest, NonHtmlNotInstrumented) {
  const auto result = Get("/img/i0.jpg");
  EXPECT_EQ(result.response.body.find("__rd"), std::string::npos);
}

// The full loop at every decoy count the proxy is run with: the page's
// handler must name the dispatcher the served script really defines.
class ProxyServerDecoysTest : public ProxyServerTest,
                              public ::testing::WithParamInterface<size_t> {};

TEST_P(ProxyServerDecoysTest, FullHumanBeaconLoop) {
  UseDecoys(GetParam());
  DriveHumanBeaconLoop();

  // The session now carries every human signal.
  SessionState* session = Session();
  const SessionSignals& sig = session->signals();
  EXPECT_GT(sig.js_download_at, 0);
  EXPECT_GT(sig.css_probe_at, 0);
  EXPECT_GT(sig.js_executed_at, 0);
  EXPECT_GT(sig.mouse_event_at, 0);
  EXPECT_EQ(sig.wrong_key_at, 0);
  EXPECT_EQ(sig.ua_mismatch_at, 0);  // Header matches engine string.
  EXPECT_EQ(Count("robodet_beacon_hits_total", {{"result", "ok"}}), 1u);
}

INSTANTIATE_TEST_SUITE_P(Decoys, ProxyServerDecoysTest, ::testing::Values(0u, 1u, 4u, 8u));

// Get checks Result::verdict against the session after every call; these
// cases drive each way out of Handle and check that reporting the verdict
// counts nothing: a session's verdict is counted once, when it closes.
TEST_F(ProxyServerTest, HandleReportsVerdictOfHumanAndScraper) {
  // Probe intercepts and origin fetches of a human.
  DriveHumanBeaconLoop();
  EXPECT_EQ(Get("/p/2.html").verdict, Verdict::kHuman);

  // A scraper from IP 2 that follows the hidden link.
  const auto page = Get("/p/1.html", IpAddress(2));
  std::string hidden_url;
  const HtmlDocument doc(page.response.body);
  for (const LinkRef& link : doc.Links()) {
    if (link.href.find("/__rd/hl_") != std::string::npos) {
      hidden_url = link.href;
    }
  }
  ASSERT_FALSE(hidden_url.empty());
  EXPECT_EQ(Get(hidden_url, IpAddress(2)).verdict, Verdict::kRobot);

  EXPECT_EQ(SeriesTotal("robodet_verdict_total"), 0u);
}

TEST_F(ProxyServerTest, HandleReportsVerdictOfBlockedRobot) {
  ProxyConfig config;
  config.enable_policy = true;
  config.policy.max_cgi_per_minute = 10;
  config.policy.min_observation = kSecond;
  UseConfig(config);
  uint64_t handled = 0;
  ProxyServer::Result result;
  while (!result.blocked && handled < 200) {
    result = Get(site_.CgiPath(0), IpAddress(200), "click=" + std::to_string(handled));
    ++handled;
  }
  ASSERT_TRUE(result.blocked);
  EXPECT_EQ(result.verdict, Verdict::kRobot);
  // The policy judged every request, and no verdict is counted before close.
  EXPECT_EQ(SeriesTotal("robodet_verdict_total"), 0u);
}

TEST_F(ProxyServerTest, HandleReportsVerdictOfShedRequest) {
  ProxyConfig config;
  config.resilience.admission_rps = 1;
  UseConfig(config);
  // Within one second: admitted, then shed-robots (judged), then shed-all.
  std::vector<DegradationLevel> levels;
  for (int i = 0; i < 4; ++i) {
    levels.push_back(Get(SiteModel::PagePath(static_cast<PageId>(i))).degraded);
  }
  EXPECT_EQ(levels.back(), DegradationLevel::kShed);
  EXPECT_EQ(SeriesTotal("robodet_verdict_total"), 0u);
}

TEST_F(ProxyServerTest, IdleSplitCountsTheOldSessionVerdictOnce) {
  GetPastTable1Filter();
  const Classification old_session =
      CombinedClassifier{}.ClassifyOnline(Session()->observation());
  EXPECT_EQ(SeriesTotal("robodet_verdict_total"), 0u);

  clock_.Advance(2 * kHour);
  Get("/p/1.html");  // Past the idle timeout: the old session closes.
  EXPECT_EQ(SeriesTotal("robodet_verdict_total"), 1u);
  EXPECT_EQ(Count("robodet_verdict_total",
                  {{"class", std::string(VerdictName(old_session.verdict))},
                   {"source", std::string(VerdictSource(old_session))}}),
            1u);
  Get("/p/2.html");
  // The new session closes with 2 requests, under the filter.
  proxy_->sessions().CloseAll();
  EXPECT_EQ(SeriesTotal("robodet_verdict_total"), 1u);
}

TEST_F(ProxyServerTest, CrashDropCountsNoVerdict) {
  GetPastTable1Filter();
  proxy_->SimulateCrashRestart(clock_.Now());
  EXPECT_EQ(proxy_->sessions().active_count(), 0u);
  proxy_->sessions().CloseAll();
  EXPECT_EQ(SeriesTotal("robodet_verdict_total"), 0u);
}

TEST_F(ProxyServerTest, WrongBeaconKeyFlagged) {
  Get("/p/1.html");
  const auto result = Get("/__rd/bk_deadbeefdeadbeefdeadbeefdeadbeef.jpg");
  EXPECT_EQ(result.response.status, StatusCode::kOk);  // Image served anyway.
  EXPECT_GT(Session()->signals().wrong_key_at, 0);
  EXPECT_EQ(Count("robodet_beacon_hits_total", {{"result", "wrong_key"}}), 1u);
}

TEST_F(ProxyServerTest, BeaconKeyReplayFromAnotherIpFails) {
  const auto page = Get("/p/1.html", IpAddress(1));
  HtmlDocument doc(page.response.body);
  std::string script_url;
  for (const EmbedRef& e : doc.EmbeddedObjects()) {
    if (e.url.find("/__rd/js_") != std::string::npos) {
      script_url = e.url;
    }
  }
  const auto script = Get(script_url, IpAddress(1));
  JsInterpreter interp(JsInterpreter::Config{kUa, 300000});
  ASSERT_TRUE(interp.Run(script.response.body).ok);
  ASSERT_TRUE(interp.RunHandler(doc.BodyEventHandler()).ok);
  ASSERT_EQ(interp.fetched_urls().size(), 1u);
  // Replay the correct beacon from a different IP: wrong-key for that IP.
  Get(interp.fetched_urls()[0], IpAddress(99));
  EXPECT_GT(Session(IpAddress(99))->signals().wrong_key_at, 0);
  EXPECT_EQ(Session(IpAddress(99))->signals().mouse_event_at, 0);
}

TEST_F(ProxyServerTest, HiddenLinkTrap) {
  const auto page = Get("/p/1.html");
  HtmlDocument doc(page.response.body);
  std::string hidden_url;
  for (const LinkRef& link : doc.Links()) {
    if (link.href.find("/__rd/hl_") != std::string::npos) {
      hidden_url = link.href;
    }
  }
  ASSERT_FALSE(hidden_url.empty());
  EXPECT_EQ(Get(hidden_url).response.status, StatusCode::kOk);
  EXPECT_GT(Session()->signals().hidden_link_at, 0);
}

// The script-build stage is timed on every js_ fetch that builds a script
// and on no other request: a forged token is refused before any build.
TEST_F(ProxyServerTest, ScriptBuildStageTimesEveryBuiltScript) {
  DriveHumanBeaconLoop();
  EXPECT_EQ(Get("/__rd/js_000000000000000000000000.js").response.status,
            StatusCode::kNotFound);
  const RegistrySnapshot snapshot = proxy_->metrics().Scrape();
  const MetricSnapshot* build = snapshot.Find("robodet_script_build_duration_us");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->histogram.count,
            snapshot.CounterValue("robodet_probe_hits_total", {{"kind", "js_file"}}));
  EXPECT_GE(build->histogram.count, 1u);
}

TEST_F(ProxyServerTest, ForgedInstrumentationTokensRejected) {
  Get("/p/1.html");
  EXPECT_EQ(Get("/__rd/js_000000000000000000000000.js").response.status,
            StatusCode::kNotFound);
  EXPECT_EQ(Get("/__rd/cp_000000000000000000000000.css").response.status,
            StatusCode::kNotFound);
  // A forged hidden-link token serves a page but records no signal.
  const auto before = Session()->signals().hidden_link_at;
  Get("/__rd/hl_000000000000000000000000.html");
  EXPECT_EQ(Session()->signals().hidden_link_at, before);
}

TEST_F(ProxyServerTest, UaMismatchDetected) {
  const auto page = Get("/p/1.html");
  HtmlDocument doc(page.response.body);
  // Execute the UA-echo with a DIFFERENT engine string than the header.
  JsInterpreter interp(JsInterpreter::Config{"EvilBotEngine/2.0", 300000});
  for (const std::string& code : doc.InlineScripts()) {
    ASSERT_TRUE(interp.Run(code).ok);
  }
  ASSERT_FALSE(interp.document_writes().empty());
  HtmlDocument written(interp.document_writes()[0]);
  Get(written.EmbeddedObjects()[0].url);
  const SessionSignals& sig = Session()->signals();
  EXPECT_GT(sig.js_executed_at, 0);
  EXPECT_GT(sig.ua_mismatch_at, 0);
}

TEST_F(ProxyServerTest, BeaconScriptIsDeterministicPerToken) {
  std::string key1;
  std::string key2;
  const GeneratedBeacon a = proxy_->BuildBeaconForToken("sometoken", &key1);
  const GeneratedBeacon b = proxy_->BuildBeaconForToken("sometoken", &key2);
  EXPECT_EQ(a.script_source, b.script_source);
  EXPECT_EQ(key1, key2);
  const GeneratedBeacon c = proxy_->BuildBeaconForToken("othertoken", nullptr);
  EXPECT_NE(a.script_source, c.script_source);
}

TEST_F(ProxyServerTest, SessionEventAttribution) {
  Get("/p/1.html");
  // Fetch an embedded site image: counts as embedded + link-follow info.
  const SitePage& page = site_.page(1);
  if (!page.images.empty()) {
    Get(page.images[0]);
    const auto& events = Session()->events();
    ASSERT_GE(events.size(), 2u);
    EXPECT_TRUE(events.back().is_embedded);
  }
  // Follow a real link from the page.
  if (!page.links.empty()) {
    Get(SiteModel::PagePath(page.links[0]));
    EXPECT_TRUE(Session()->events().back().is_link_follow);
  }
}

// A link written with a fragment or with dot segments is followed at the
// URL a browser requests for it: fragment dropped, dot segments removed.
TEST_F(ProxyServerTest, FragmentAndDotSegmentLinksAreFollowed) {
  ProxyConfig config;
  config.host = site_.host();
  proxy_ = std::make_unique<ProxyServer>(
      config, &clock_,
      [](const Request& r) {
        return MakeHtmlResponse(r.url.path() == "/dir/a.html"
                                    ? "<html><body><a href=\"b.html#sec\">b</a>"
                                      "<a href=\"../top.html\">top</a></body></html>"
                                    : "<html><body>leaf</body></html>");
      },
      77);
  Get("/dir/a.html");
  Get("/dir/b.html");
  EXPECT_TRUE(Session()->events().back().is_link_follow);
  Get("/top.html");
  EXPECT_TRUE(Session()->events().back().is_link_follow);
}

TEST_F(ProxyServerTest, UnseenReferrerFlagged) {
  Request r;
  r.time = clock_.Now();
  r.client_ip = IpAddress(1);
  r.url = Url::Make(site_.host(), "/p/2.html");
  r.headers.Set("User-Agent", kUa);
  r.headers.Set("Referer", "http://spam.example.org/");
  proxy_->Handle(r);
  const auto& events = Session()->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].has_referrer);
  EXPECT_TRUE(events[0].unseen_referrer);
}

TEST_F(ProxyServerTest, SeenReferrerNotFlagged) {
  Get("/p/1.html");
  Request r;
  r.time = clock_.Now();
  r.client_ip = IpAddress(1);
  r.url = Url::Make(site_.host(), "/p/2.html");
  r.headers.Set("User-Agent", kUa);
  r.headers.Set("Referer", "http://" + site_.host() + "/p/1.html");
  proxy_->Handle(r);
  EXPECT_FALSE(Session()->events().back().unseen_referrer);
}

TEST_F(ProxyServerTest, PolicyBlocksFloodingRobot) {
  ProxyConfig config;
  config.host = site_.host();
  config.enable_policy = true;
  config.policy.max_cgi_per_minute = 10;
  config.policy.min_observation = kSecond;
  SimClock clock;
  ProxyServer proxy(
      config, &clock, [this](const Request& r) { return origin_->Handle(r); }, 5);
  // A robot-looking session (no probes fetched over many pages) hammering
  // CGI endpoints.
  bool blocked = false;
  for (int i = 0; i < 200 && !blocked; ++i) {
    Request r;
    r.time = clock.Now();
    r.client_ip = IpAddress(200);
    r.url = Url::Make(site_.host(), site_.CgiPath(0), "click=" + std::to_string(i));
    r.headers.Set("User-Agent", "AnyBot/1.0");
    blocked = proxy.Handle(r).blocked;
    clock.Advance(200);
  }
  EXPECT_TRUE(blocked);
  EXPECT_GT(proxy.metrics().Scrape().CounterValue("robodet_blocked_requests_total"), 0u);
}

TEST_F(ProxyServerTest, BandwidthOverheadTracked) {
  for (int i = 0; i < 5; ++i) {
    const auto page = Get(SiteModel::PagePath(static_cast<PageId>(i)));
    HtmlDocument doc(page.response.body);
    for (const EmbedRef& e : doc.EmbeddedObjects()) {
      Get(e.url);
    }
  }
  const RegistrySnapshot snapshot = proxy_->metrics().Scrape();
  EXPECT_GT(snapshot.CounterValue("robodet_origin_bytes_total"), 0u);
  EXPECT_GT(snapshot.CounterValue("robodet_instrumentation_bytes_total"), 0u);
  EXPECT_GT(InstrumentationOverheadFraction(snapshot), 0.0);
  EXPECT_LT(InstrumentationOverheadFraction(snapshot), 0.5);
}

TEST_F(ProxyServerTest, CaptchaFlow) {
  ProxyConfig config;
  config.enable_captcha = true;
  UseConfig(config);
  const auto challenge = Get("/__rd/captcha.html");
  ASSERT_EQ(challenge.response.status, StatusCode::kOk);
  const auto answer = CaptchaService::ReadAnswerFromBody(challenge.response.body);
  ASSERT_TRUE(answer.has_value());
  HtmlDocument doc(challenge.response.body);
  std::string token;
  for (const LinkRef& link : doc.Links()) {
    const size_t at = link.href.find("captcha_");
    const size_t end = link.href.find(".cgi");
    if (at != std::string::npos && end != std::string::npos) {
      token = link.href.substr(at + 8, end - at - 8);
    }
  }
  ASSERT_FALSE(token.empty());
  const auto submit = Get("/__rd/captcha_" + token + ".cgi", IpAddress(1), "ans=" + *answer);
  EXPECT_EQ(submit.response.status, StatusCode::kOk);
  EXPECT_GT(Session()->signals().captcha_passed_at, 0);

  // Wrong answer on a fresh challenge fails.
  const auto challenge2 = Get("/__rd/captcha.html");
  HtmlDocument doc2(challenge2.response.body);
  std::string token2;
  for (const LinkRef& link : doc2.Links()) {
    const size_t at = link.href.find("captcha_");
    const size_t end = link.href.find(".cgi");
    if (at != std::string::npos && end != std::string::npos) {
      token2 = link.href.substr(at + 8, end - at - 8);
    }
  }
  const auto bad = Get("/__rd/captcha_" + token2 + ".cgi", IpAddress(1), "ans=wrong");
  EXPECT_EQ(bad.response.status, StatusCode::kForbidden);
  EXPECT_GT(Session()->signals().captcha_failed_at, 0);
}

TEST_F(ProxyServerTest, DetectionOffInjectsNothing) {
  ProxyConfig config;
  config.enable_human_activity = false;
  config.enable_ua_echo = false;
  config.enable_css_probe = false;
  config.enable_hidden_link = false;
  UseConfig(config);
  const auto page = Get("/p/1.html");
  EXPECT_EQ(page.response.body.find("/__rd/"), std::string::npos);
}

}  // namespace
}  // namespace robodet
