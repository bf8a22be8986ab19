// The chaos harness contract: a seeded fault schedule is exactly
// reproducible (same seed -> identical robodet_* counters), and the
// degradation ladder keeps pages flowing — or deliberately refuses — while
// the origin is sick, with every decision on the books.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>

#include "src/robodet.h"

namespace robodet {
namespace {

constexpr char kUa[] = "Mozilla/5.0 (X11; Linux) Gecko/20060101 Firefox/1.5";

Request PageRequest(const std::string& host, const std::string& path, IpAddress ip,
                    TimeMs time) {
  Request r;
  r.time = time;
  r.client_ip = ip;
  r.url = Url::Make(host, path);
  r.headers.Set("User-Agent", kUa);
  return r;
}

ExperimentConfig ChaoticConfig() {
  ExperimentConfig config;
  config.seed = 31;
  config.num_clients = 120;
  config.arrival_window = 2 * kHour;
  config.site.num_pages = 40;
  config.proxy.resilience.max_body_bytes = 128 * 1024;
  config.faults.error_rate = 0.15;
  config.faults.slow_rate = 0.10;
  config.faults.corrupt_rate = 0.10;
  config.faults.oversize_bytes = 256 * 1024;
  config.faults.seed = 4242;
  return config;
}

// Counters and gauges are pure functions of (config, seed); latency
// histograms measure wall time and are excluded.
std::map<std::string, uint64_t> DeterministicValues(const RegistrySnapshot& snapshot) {
  std::map<std::string, uint64_t> out;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.kind == MetricKind::kHistogram) {
      continue;
    }
    std::string key = m.name;
    for (const Label& label : m.labels) {
      key += "|" + label.key + "=" + label.value;
    }
    out.emplace(std::move(key),
                m.kind == MetricKind::kCounter ? m.counter : static_cast<uint64_t>(m.gauge));
  }
  return out;
}

TEST(ChaosTest, SeededChaosRunsAreReproducible) {
  Experiment first(ChaoticConfig());
  first.Run();
  Experiment second(ChaoticConfig());
  second.Run();

  // Identical fault schedule...
  EXPECT_EQ(first.faults().counts().total, second.faults().counts().total);
  EXPECT_EQ(first.faults().counts().errors, second.faults().counts().errors);
  EXPECT_EQ(first.faults().counts().slowed, second.faults().counts().slowed);
  EXPECT_EQ(first.faults().counts().corrupted, second.faults().counts().corrupted);
  EXPECT_GT(first.faults().counts().errors, 0u);

  // ...and identical counter values, down to the last robodet_* metric.
  EXPECT_EQ(DeterministicValues(first.proxy().metrics().Scrape()),
            DeterministicValues(second.proxy().metrics().Scrape()));
  EXPECT_EQ(first.records().size(), second.records().size());
}

TEST(ChaosTest, DetectionDegradesGracefullyUnderFaults) {
  Experiment experiment(ChaoticConfig());
  experiment.Run();

  ASSERT_GT(experiment.records().size(), 0u);
  const RegistrySnapshot snapshot = experiment.proxy().metrics().Scrape();
  // Faults really flowed through the resilient path...
  EXPECT_GT(experiment.faults().counts().errors, 0u);
  EXPECT_GT(snapshot.CounterValue("robodet_degraded_total", {{"level", "pass_through"}}), 0u);
  EXPECT_GT(snapshot.CounterValue("robodet_origin_retries_total"), 0u);
  // ...and detection kept working: pages were still instrumented and
  // sessions still produced verdict-bearing signal.
  EXPECT_GT(snapshot.CounterValue("robodet_pages_instrumented_total"), 0u);
  EXPECT_GT(snapshot.CounterValue("robodet_beacon_hits_total", {{"result", "ok"}}), 0u);
}

// The origin fails `failure_threshold` fetches in a row, which opens the
// breaker; the next page is served by the ladder's breaker-open rung.
TEST(DegradationLadderTest, BreakerOpenFailOpenServesPassThrough) {
  SimClock clock;
  const int failures = CircuitBreaker::Config{}.failure_threshold;
  auto make_proxy = [&clock, failures](bool fail_open) {
    ProxyConfig config;
    config.host = "www.example.com";
    config.resilience.fail_open = fail_open;
    auto proxy = std::make_unique<ProxyServer>(
        config, &clock, FallibleOriginHandler([](const Request& r) {
          // Pages requested before t=1000 hit a dead origin.
          return r.time < 1000
                     ? OriginResult::Fail(OriginErrorKind::kConnectFail, 1)
                     : OriginResult::Ok(MakeHtmlResponse("<html><body>page</body></html>"), 5);
        }),
        911);
    for (int i = 0; i < failures; ++i) {
      proxy->Handle(PageRequest("www.example.com", "/p/1.html", IpAddress(1), 10 * i));
    }
    const RegistrySnapshot staged = proxy->metrics().Scrape();
    const MetricSnapshot* state = staged.Find("robodet_breaker_state");
    EXPECT_TRUE(state != nullptr &&
                state->gauge == static_cast<int64_t>(CircuitBreaker::State::kOpen));
    return proxy;
  };
  // Counter growth across the one request under test.
  auto delta = [](const RegistrySnapshot& before, const RegistrySnapshot& after,
                  std::string_view name, const Labels& labels = {}) {
    return after.CounterValue(name, labels) - before.CounterValue(name, labels);
  };

  const auto open_proxy = make_proxy(/*fail_open=*/true);
  const RegistrySnapshot open_before = open_proxy->metrics().Scrape();
  const auto open_result =
      open_proxy->Handle(PageRequest("www.example.com", "/p/1.html", IpAddress(1), 1000));
  EXPECT_EQ(open_result.response.status, StatusCode::kOk);
  EXPECT_EQ(open_result.degraded, DegradationLevel::kPassThrough);
  EXPECT_EQ(open_result.response.body.find("/__rd/"), std::string::npos);

  // Same outage, fail-closed policy: a distinct status, origin untouched.
  const auto closed_proxy = make_proxy(/*fail_open=*/false);
  const RegistrySnapshot closed_before = closed_proxy->metrics().Scrape();
  const auto closed_result =
      closed_proxy->Handle(PageRequest("www.example.com", "/p/2.html", IpAddress(1), 1000));
  EXPECT_EQ(closed_result.response.status, StatusCode::kServiceUnavailable);
  EXPECT_EQ(closed_result.degraded, DegradationLevel::kFailClosed);

  const RegistrySnapshot open_after = open_proxy->metrics().Scrape();
  EXPECT_EQ(delta(open_before, open_after, "robodet_degraded_total", {{"level", "pass_through"}}),
            1u);
  EXPECT_EQ(delta(open_before, open_after, "robodet_degraded_total", {{"level", "fail_closed"}}),
            0u);
  EXPECT_EQ(delta(open_before, open_after, "robodet_degraded_total", {{"level", "full"}}), 0u);
  EXPECT_EQ(delta(open_before, open_after, "robodet_breaker_rejected_total"), 0u);
  const RegistrySnapshot closed_after = closed_proxy->metrics().Scrape();
  EXPECT_EQ(
      delta(closed_before, closed_after, "robodet_degraded_total", {{"level", "fail_closed"}}),
      1u);
  EXPECT_EQ(
      delta(closed_before, closed_after, "robodet_degraded_total", {{"level", "pass_through"}}),
      0u);
  EXPECT_EQ(delta(closed_before, closed_after, "robodet_breaker_rejected_total"), 1u);
  EXPECT_EQ(delta(closed_before, closed_after, "robodet_degraded_total", {{"level", "full"}}),
            0u);
}

TEST(DegradationLadderTest, SlowOriginStepsDownToBeaconOnly) {
  ProxyConfig config;
  config.host = "www.example.com";
  SimClock clock;
  // 400 ms: past the proxy's 250 ms slow-origin threshold.
  ProxyServer proxy(config, &clock,
                    FallibleOriginHandler([](const Request&) {
                      return OriginResult::Ok(
                          MakeHtmlResponse("<html><body>slow page</body></html>"), 400);
                    }),
                    911);
  const auto result =
      proxy.Handle(PageRequest("www.example.com", "/p/1.html", IpAddress(2), 0));
  EXPECT_EQ(result.response.status, StatusCode::kOk);
  EXPECT_EQ(result.degraded, DegradationLevel::kBeaconOnly);
  // Beacon script survives; the secondary probes are shed.
  EXPECT_NE(result.response.body.find("js_"), std::string::npos);
  EXPECT_EQ(result.response.body.find("cp_"), std::string::npos);
  EXPECT_EQ(result.response.body.find("hl_"), std::string::npos);
}

TEST(DegradationLadderTest, OverloadShedsWithDistinctStatus) {
  ProxyConfig config;
  config.host = "www.example.com";
  config.resilience.admission_rps = 3;
  SimClock clock;
  ProxyServer proxy(config, &clock,
                    FallibleOriginHandler([](const Request&) {
                      return OriginResult::Ok(
                          MakeHtmlResponse("<html><body>page</body></html>"), 5);
                    }),
                    911);

  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    const auto result = proxy.Handle(
        PageRequest("www.example.com", "/p/1.html", IpAddress(3), /*time=*/i * 10));
    if (result.degraded == DegradationLevel::kShed) {
      ++shed;
      EXPECT_EQ(result.response.status, StatusCode::kServiceUnavailable);
    }
  }
  // Past twice the 3 rps budget everything sheds: requests 7..10 at least.
  EXPECT_GE(shed, 4);
  const RegistrySnapshot snapshot = proxy.metrics().Scrape();
  EXPECT_EQ(snapshot.CounterValue("robodet_shed_total", {{"scope", "all"}}) +
                snapshot.CounterValue("robodet_shed_total", {{"scope", "robots"}}),
            static_cast<uint64_t>(shed));
  // A quiet second later, admission recovers.
  const auto later = proxy.Handle(
      PageRequest("www.example.com", "/p/1.html", IpAddress(3), 5 * kSecond));
  EXPECT_EQ(later.degraded, DegradationLevel::kFull);
}

}  // namespace
}  // namespace robodet
