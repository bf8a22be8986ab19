// End-to-end parity between the legacy ProxyStats view and the metrics
// registry that now backs it: after a simulated session mix, every
// ProxyStats field must equal the corresponding registry series.
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

TEST(StatsParityTest, ProxyStatsMatchesRegistryAfterSessionMix) {
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

  const ProxyStats stats = proxy.stats();
  ASSERT_GT(stats.requests, 0u);
  ASSERT_GT(stats.pages_instrumented, 0u);

  const RegistrySnapshot snap = proxy.metrics().Scrape();
  EXPECT_EQ(stats.requests, snap.CounterValue("robodet_requests_total"));
  EXPECT_EQ(stats.blocked_requests, snap.CounterValue("robodet_blocked_requests_total"));
  EXPECT_EQ(stats.pages_instrumented,
            snap.CounterValue("robodet_pages_instrumented_total"));
  EXPECT_EQ(stats.probe_hits_css,
            snap.CounterValue("robodet_probe_hits_total", {{"kind", "css"}}));
  EXPECT_EQ(stats.probe_hits_js_file,
            snap.CounterValue("robodet_probe_hits_total", {{"kind", "js_file"}}));
  EXPECT_EQ(stats.beacon_hits_ok,
            snap.CounterValue("robodet_beacon_hits_total", {{"result", "ok"}}));
  EXPECT_EQ(stats.beacon_hits_wrong,
            snap.CounterValue("robodet_beacon_hits_total", {{"result", "wrong_key"}}));
  EXPECT_EQ(stats.ua_echo_hits,
            snap.CounterValue("robodet_probe_hits_total", {{"kind", "ua_echo"}}));
  EXPECT_EQ(stats.hidden_link_hits,
            snap.CounterValue("robodet_probe_hits_total", {{"kind", "hidden_link"}}));
  EXPECT_EQ(stats.origin_bytes, snap.CounterValue("robodet_origin_bytes_total"));
  EXPECT_EQ(stats.instrumentation_bytes,
            snap.CounterValue("robodet_instrumentation_bytes_total"));

  // The latency histogram saw every request.
  const MetricSnapshot* handle = snap.Find("robodet_handle_duration_us");
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->histogram.count, stats.requests);
  // The rewrite histogram saw every instrumented page.
  const MetricSnapshot* rewrite = snap.Find("robodet_rewrite_duration_us");
  ASSERT_NE(rewrite, nullptr);
  EXPECT_EQ(rewrite->histogram.count, stats.pages_instrumented);
  // Every instrumented page derived one beacon key, and registered its
  // served refs (as do uninstrumented HTML pages).
  const MetricSnapshot* page_key = snap.Find("robodet_page_key_duration_us");
  ASSERT_NE(page_key, nullptr);
  EXPECT_EQ(page_key->histogram.count, stats.pages_instrumented);
  const MetricSnapshot* served_refs = snap.Find("robodet_served_refs_duration_us");
  ASSERT_NE(served_refs, nullptr);
  EXPECT_GE(served_refs->histogram.count, stats.pages_instrumented);

  // Session-table metrics agree with the table.
  const MetricSnapshot* active = snap.Find("robodet_sessions_active");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(static_cast<size_t>(active->gauge), proxy.sessions().active_count());
}

TEST(StatsParityTest, MetricsDisabledYieldsZeroStatsButServes) {
  SiteConfig site_config;
  Rng site_rng(7);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  SimClock clock;
  ProxyConfig config;
  config.host = site.host();
  config.enable_metrics = false;
  ProxyServer proxy(config, &clock, [&origin](const Request& r) { return origin.Handle(r); },
                    1);

  Request request;
  request.time = clock.Now();
  request.client_ip = *IpAddress::Parse("10.1.1.1");
  request.url = Url::Make(site.host(), SiteModel::PagePath(0));
  request.headers.Set("User-Agent", "Mozilla/5.0 (test)");
  const ProxyServer::Result result = proxy.Handle(request);
  EXPECT_FALSE(result.blocked);
  EXPECT_EQ(result.response.status, StatusCode::kOk);

  const ProxyStats stats = proxy.stats();
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_TRUE(proxy.metrics().Scrape().metrics.empty());
}

TEST(StatsParityTest, SharedRegistryAggregatesAcrossProxies) {
  SiteConfig site_config;
  Rng site_rng(9);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  SimClock clock;
  ProxyConfig config;
  config.host = site.host();
  ProxyServer a(config, &clock, [&origin](const Request& r) { return origin.Handle(r); }, 1);
  ProxyServer b(config, &clock, [&origin](const Request& r) { return origin.Handle(r); }, 2);
  MetricsRegistry shared;
  a.UseSharedMetrics(&shared);
  b.UseSharedMetrics(&shared);

  for (int i = 0; i < 3; ++i) {
    Request request;
    request.time = clock.Now();
    request.client_ip = IpAddress(100 + static_cast<uint32_t>(i));
    request.url = Url::Make(site.host(), SiteModel::PagePath(i));
    request.headers.Set("User-Agent", "Mozilla/5.0 (test)");
    (i % 2 == 0 ? a : b).Handle(request);
    clock.Advance(10);
  }
  EXPECT_EQ(shared.Scrape().CounterValue("robodet_requests_total"), 3u);
  // Both proxies' compatibility views read the shared totals.
  EXPECT_EQ(a.stats().requests, 3u);
  EXPECT_EQ(b.stats().requests, 3u);
}

TEST(StatsParityTest, VerdictCountersFollowClassifySession) {
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

  const SessionState& human =
      *proxy.sessions().Touch({*IpAddress::Parse("10.0.0.1"),
                               StandardBrowserProfiles()[1].user_agent},
                              clock.Now());
  const SessionState& robot =
      *proxy.sessions().Touch({*IpAddress::Parse("10.0.0.2"),
                               StandardBrowserProfiles()[1].user_agent},
                              clock.Now());
  const Classification human_c = proxy.ClassifySession(human);
  const Classification robot_c = proxy.ClassifySession(robot);
  EXPECT_EQ(human_c.verdict, Verdict::kHuman);
  EXPECT_EQ(robot_c.verdict, Verdict::kRobot);

  const RegistrySnapshot snap = proxy.metrics().Scrape();
  uint64_t human_total = 0;
  uint64_t robot_total = 0;
  for (const MetricSnapshot& m : snap.metrics) {
    if (m.name != "robodet_verdict_total") {
      continue;
    }
    for (const Label& label : m.labels) {
      if (label.key == "class" && label.value == "human") {
        human_total += m.counter;
      }
      if (label.key == "class" && label.value == "robot") {
        robot_total += m.counter;
      }
    }
  }
  EXPECT_EQ(human_total, 1u);
  EXPECT_EQ(robot_total, 1u);
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

  const ProxyStats stats = proxy.stats();
  ASSERT_GT(stats.blocked_requests, 0u);
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
