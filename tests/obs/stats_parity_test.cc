// End-to-end consistency of the metrics registry, the one place a proxy's
// counts live: after a simulated session mix, the latency histograms agree
// with the counters, and verdict and trace outputs follow the sessions they
// describe.
#include <map>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "src/robodet.h"

namespace robodet {
namespace {

// Drives one human and one robot client to completion through the proxy.
void RunSessionMix(SiteModel* site, Gateway* gateway, SimClock* clock) {
  BrowserProfile profile = StandardBrowserProfiles()[1];
  ClientIdentity human_id;
  human_id.ip = *IpAddress::Parse("10.0.0.1");
  human_id.user_agent = profile.user_agent;
  human_id.is_human = true;
  HumanConfig human_config;
  human_config.min_pages = 4;
  human_config.max_pages = 6;
  HumanBrowserClient human(human_id, Rng(11), site, profile, human_config);

  ClientIdentity bot_id;
  bot_id.ip = *IpAddress::Parse("10.0.0.2");
  bot_id.user_agent = profile.user_agent;
  ReferrerSpammerClient robot(bot_id, Rng(12), site, RobotConfig{});

  for (Client* client : {static_cast<Client*>(&human), static_cast<Client*>(&robot)}) {
    while (true) {
      const auto delay = client->Step(clock->Now(), *gateway);
      if (!delay.has_value()) {
        break;
      }
      clock->Advance(*delay);
    }
  }
}

TEST(StatsParityTest, HistogramsAgreeWithCountersAfterSessionMix) {
  SiteConfig site_config;
  Rng site_rng(2006);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  SimClock clock;
  ProxyConfig config;
  config.host = site.host();
  ProxyServer proxy(config, &clock, [&origin](const Request& r) { return origin.Handle(r); },
                    1);
  Gateway gateway(&proxy, &clock);
  RunSessionMix(&site, &gateway, &clock);

  const RegistrySnapshot snap = proxy.metrics().Scrape();
  const uint64_t requests = snap.CounterValue("robodet_requests_total");
  const uint64_t pages = snap.CounterValue("robodet_pages_instrumented_total");
  ASSERT_GT(requests, 0u);
  ASSERT_GT(pages, 0u);

  // The latency histogram saw every request.
  const MetricSnapshot* handle = snap.Find("robodet_handle_duration_us");
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->histogram.count, requests);
  // The rewrite histogram saw every instrumented page.
  const MetricSnapshot* rewrite = snap.Find("robodet_rewrite_duration_us");
  ASSERT_NE(rewrite, nullptr);
  EXPECT_EQ(rewrite->histogram.count, pages);
  // Every instrumented page derived one beacon key, and registered its
  // served refs (as do uninstrumented HTML pages).
  const MetricSnapshot* page_key = snap.Find("robodet_page_key_duration_us");
  ASSERT_NE(page_key, nullptr);
  EXPECT_EQ(page_key->histogram.count, pages);
  const MetricSnapshot* served_refs = snap.Find("robodet_served_refs_duration_us");
  ASSERT_NE(served_refs, nullptr);
  EXPECT_GE(served_refs->histogram.count, pages);
  // Every beacon-script fetch with a valid token built one script.
  const MetricSnapshot* script_build = snap.Find("robodet_script_build_duration_us");
  ASSERT_NE(script_build, nullptr);
  EXPECT_EQ(script_build->histogram.count,
            snap.CounterValue("robodet_probe_hits_total", {{"kind", "js_file"}}));

  // Session-table metrics agree with the table.
  const MetricSnapshot* active = snap.Find("robodet_sessions_active");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(static_cast<size_t>(active->gauge), proxy.sessions().active_count());
}

// Each robodet_verdict_total series, keyed "class/source".
std::map<std::string, uint64_t> VerdictSeries(const ProxyServer& proxy) {
  std::map<std::string, uint64_t> series;
  for (const MetricSnapshot& m : proxy.metrics().Scrape().metrics) {
    if (m.name != "robodet_verdict_total") {
      continue;
    }
    std::string class_label;
    std::string source_label;
    for (const Label& label : m.labels) {
      (label.key == "class" ? class_label : source_label) = label.value;
    }
    series[class_label + "/" + source_label] += m.counter;
  }
  return series;
}

TEST(StatsParityTest, VerdictSeriesCountEachClosedSessionOnce) {
  SiteConfig site_config;
  Rng site_rng(2006);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  SimClock clock;
  ProxyConfig config;
  config.host = site.host();
  ProxyServer proxy(config, &clock, [&origin](const Request& r) { return origin.Handle(r); },
                    1);
  // The classifier's verdict on every session as it closes, for the
  // analyzed (more than 10 requests) ones.
  std::map<std::string, uint64_t> expected;
  int closed = 0;
  int short_closed = 0;
  proxy.sessions().set_on_closed([&](std::unique_ptr<SessionState> session) {
    ++closed;
    if (session->request_count() <= kTable1MinRequests) {
      ++short_closed;
      return;
    }
    const Classification c = CombinedClassifier{}.ClassifyOnline(session->observation());
    ++expected[std::string(VerdictName(c.verdict)) + "/" + std::string(VerdictSource(c))];
  });
  Gateway gateway(&proxy, &clock);
  RunSessionMix(&site, &gateway, &clock);
  // A five-request visit: under Table 1's filter.
  for (int i = 0; i < 5; ++i) {
    Request r;
    r.time = clock.Now();
    r.client_ip = *IpAddress::Parse("10.0.0.3");
    r.url = Url::Make(site.host(), SiteModel::PagePath(static_cast<PageId>(i)));
    r.headers.Set("User-Agent", "ShortVisit/1.0");
    proxy.Handle(r);
    clock.Advance(kSecond);
  }
  EXPECT_TRUE(VerdictSeries(proxy).empty());  // Nothing closed yet.

  proxy.sessions().CloseAll();
  EXPECT_EQ(closed, 3);
  EXPECT_EQ(short_closed, 1);
  EXPECT_EQ(expected, (std::map<std::string, uint64_t>{{"human/mouse_event_key_match", 1},
                                                       {"robot/ignored_all_css_probes", 1}}));
  EXPECT_EQ(VerdictSeries(proxy), expected);
}

// The policy judges every request of a gated run, but a verdict series
// moves only when a session closes.
TEST(StatsParityTest, PolicyGatedRunCountsVerdictsOnlyAtClose) {
  SiteConfig site_config;
  Rng site_rng(2006);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  SimClock clock;
  ProxyConfig config;
  config.host = site.host();
  config.enable_policy = true;
  config.policy.max_get_per_minute = 30.0;
  ProxyServer proxy(config, &clock, [&origin](const Request& r) { return origin.Handle(r); },
                    1);
  Gateway gateway(&proxy, &clock);
  RunSessionMix(&site, &gateway, &clock);

  ASSERT_GT(proxy.metrics().Scrape().CounterValue("robodet_blocked_requests_total"), 0u);
  EXPECT_TRUE(VerdictSeries(proxy).empty());
  proxy.sessions().CloseAll();
  uint64_t robots = 0;
  for (const auto& [key, count] : VerdictSeries(proxy)) {
    robots += key.rfind("robot/", 0) == 0 ? count : 0;
  }
  EXPECT_EQ(robots, 1u);
}

TEST(StatsParityTest, BlockedSessionsForceTraces) {
  SiteConfig site_config;
  Rng site_rng(2006);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  SimClock clock;
  ProxyConfig config;
  config.host = site.host();
  config.enable_policy = true;
  config.policy.max_get_per_minute = 30.0;
  ProxyServer proxy(config, &clock, [&origin](const Request& r) { return origin.Handle(r); },
                    1);
  // sample_every=0: only forced (blocked-session) requests get traced.
  TraceRecorder tracer(TraceRecorder::Config{64, 0, {}});
  proxy.set_trace_recorder(&tracer);
  Gateway gateway(&proxy, &clock);
  RunSessionMix(&site, &gateway, &clock);

  ASSERT_GT(proxy.metrics().Scrape().CounterValue("robodet_blocked_requests_total"), 0u);
  const std::vector<RequestTrace> traces = tracer.Snapshot();
  ASSERT_FALSE(traces.empty());
  for (const RequestTrace& trace : traces) {
    EXPECT_TRUE(trace.forced);
    EXPECT_TRUE(trace.blocked);
    EXPECT_EQ(trace.verdict, "robot");
    EXPECT_EQ(trace.verdict_source, "policy");
    // The blocked timeline ends at the policy decision.
    ASSERT_FALSE(trace.spans.empty());
    EXPECT_EQ(trace.spans.back().name, "policy");
  }
}

}  // namespace
}  // namespace robodet
