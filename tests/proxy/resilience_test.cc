// The resilience layer's contracts: breaker state machine edges, probe
// budgets, deadline enforcement, retry policy, and
// that backoff jitter is a pure function of the configured seed.
#include <gtest/gtest.h>

#include <vector>

#include "src/proxy/resilience.h"

namespace robodet {
namespace {

Request GetRequest(TimeMs time, const std::string& host = "origin.example.com") {
  Request r;
  r.time = time;
  r.method = Method::kGet;
  r.url = Url::Make(host, "/p/1.html");
  return r;
}

OriginResult HealthyPage(TimeMs latency = 10) {
  return OriginResult::Ok(MakeHtmlResponse("<html><body>ok</body></html>"), latency);
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0, false);
  breaker.RecordFailure(1, false);
  EXPECT_EQ(breaker.StateAt(2), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(2, false);
  EXPECT_EQ(breaker.StateAt(3), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0, false);
  breaker.RecordFailure(1, false);
  breaker.RecordSuccess(2, false);  // Streak broken.
  breaker.RecordFailure(3, false);
  breaker.RecordFailure(4, false);
  EXPECT_EQ(breaker.StateAt(5), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenAfterCooldownThenClosesOnProbeSuccesses) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration = 1000;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0, false);
  EXPECT_EQ(breaker.StateAt(999), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.StateAt(1000), CircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.TryAcquireProbe(1000));
  breaker.RecordSuccess(1000, /*was_probe=*/true);
  EXPECT_EQ(breaker.StateAt(1001), CircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.TryAcquireProbe(1001));
  breaker.RecordSuccess(1001, /*was_probe=*/true);
  EXPECT_EQ(breaker.StateAt(1002), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ProbeBudgetIsBounded) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration = 1000;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0, false);
  EXPECT_TRUE(breaker.TryAcquireProbe(1000));
  EXPECT_TRUE(breaker.TryAcquireProbe(1000));
  EXPECT_TRUE(breaker.TryAcquireProbe(1000));
  EXPECT_FALSE(breaker.TryAcquireProbe(1000));  // Budget spent.
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration = 1000;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0, false);
  ASSERT_TRUE(breaker.TryAcquireProbe(1000));
  breaker.RecordFailure(1000, /*was_probe=*/true);
  EXPECT_EQ(breaker.StateAt(1999), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.StateAt(2000), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, ClockGoingBackwardsKeepsBreakerOpen) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration = 1000;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(5000, false);
  // Negative elapsed time never counts as cooldown served.
  EXPECT_EQ(breaker.StateAt(100), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.StateAt(5999), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.StateAt(6000), CircuitBreaker::State::kHalfOpen);
}

TEST(AdmissionControllerTest, ShedsRobotsThenEveryone) {
  AdmissionController admission(2);
  EXPECT_EQ(admission.Admit(0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(admission.Admit(10), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(admission.Admit(20), AdmissionController::Decision::kShedRobots);
  EXPECT_EQ(admission.Admit(30), AdmissionController::Decision::kShedRobots);
  EXPECT_EQ(admission.Admit(40), AdmissionController::Decision::kShedAll);
  // Next one-second window starts fresh.
  EXPECT_EQ(admission.Admit(kSecond), AdmissionController::Decision::kAdmit);
}

TEST(AdmissionControllerTest, ZeroBudgetDisablesShedding) {
  AdmissionController admission(0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(admission.Admit(0), AdmissionController::Decision::kAdmit);
  }
}

TEST(ResilientOriginTest, RetriesIdempotentGetUntilSuccess) {
  int calls = 0;
  ResilienceConfig config;
  ResilientOrigin origin(
      config,
      [&calls](const Request&) {
        ++calls;
        return calls < 3 ? OriginResult::Fail(OriginErrorKind::kReset, 10) : HealthyPage();
      },
      7);
  const FetchOutcome out = origin.Fetch(GetRequest(0));
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(calls, 3);
}

TEST(ResilientOriginTest, PostIsNeverRetried) {
  int calls = 0;
  ResilienceConfig config;
  ResilientOrigin origin(
      config,
      [&calls](const Request&) {
        ++calls;
        return OriginResult::Fail(OriginErrorKind::kReset, 10);
      },
      7);
  Request post = GetRequest(0);
  post.method = Method::kPost;
  const FetchOutcome out = origin.Fetch(post);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(calls, 1);
}

TEST(ResilientOriginTest, SoftErrorsServedWithoutRefetch) {
  int calls = 0;
  ResilienceConfig config;
  ResilientOrigin origin(
      config,
      [&calls](const Request&) {
        ++calls;
        Response r = MakeHtmlResponse("<html><body>cut</body></html>");
        r.headers.Set("Content-Length", "99999");  // Declares more than delivered.
        return OriginResult::Ok(std::move(r), 10);
      },
      7);
  const FetchOutcome out = origin.Fetch(GetRequest(0));
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(out.error.has_value());
  EXPECT_EQ(*out.error, OriginErrorKind::kTruncatedBody);
  EXPECT_TRUE(out.response.has_value());  // Kept for pass-through.
}

TEST(ResilientOriginTest, DeadlineTimesOutSlowAttempts) {
  constexpr TimeMs kDeadline = 2 * kSecond;  // The per-request origin budget.
  ResilienceConfig config;
  ResilientOrigin origin(
      config, [](const Request&) { return HealthyPage(/*latency=*/2500); }, 7);
  const FetchOutcome out = origin.Fetch(GetRequest(0));
  ASSERT_TRUE(out.error.has_value());
  EXPECT_EQ(*out.error, OriginErrorKind::kTimeout);
  EXPECT_FALSE(out.response.has_value());  // A timed-out body is unusable.
  EXPECT_EQ(out.latency, kDeadline);       // Charged up to the budget, no further.
  EXPECT_EQ(out.attempts, 1);              // No budget left to retry in.
}

TEST(ResilientOriginTest, BackoffDeterministicUnderFixedSeed) {
  const auto run = [](uint64_t seed) {
    ResilienceConfig config;
    ResilientOrigin origin(
        config, [](const Request&) { return OriginResult::Fail(OriginErrorKind::kReset, 10); },
        seed);
    std::vector<TimeMs> latencies;
    std::vector<int> attempts;
    for (int i = 0; i < 8; ++i) {
      const FetchOutcome out = origin.Fetch(GetRequest(i * 10));
      latencies.push_back(out.latency);
      attempts.push_back(out.attempts);
    }
    return std::make_pair(latencies, attempts);
  };
  const auto a = run(99);
  EXPECT_EQ(a, run(99));        // Same seed: identical jittered schedule.
  EXPECT_NE(a.first, run(100).first);  // Different seed: jitter actually draws.
}

TEST(ResilientOriginTest, BreakerOpensThenFailClosedRejectsWithoutOriginCall) {
  int calls = 0;
  ResilienceConfig config;
  config.breaker.failure_threshold = 2;
  config.fail_open = false;
  ResilientOrigin origin(
      config,
      [&calls](const Request&) {
        ++calls;
        return OriginResult::Fail(OriginErrorKind::kConnectFail, 1);
      },
      7);
  origin.Fetch(GetRequest(0));
  origin.Fetch(GetRequest(10));
  const int calls_before = calls;
  const FetchOutcome rejected = origin.Fetch(GetRequest(20));
  EXPECT_TRUE(rejected.rejected);
  EXPECT_EQ(rejected.attempts, 0);
  EXPECT_EQ(calls, calls_before);  // Origin untouched while rejected.
}

// The Host a client names does not pick the origin: a proxy has one, so
// failures under any Host open the one breaker that guards every Host.
TEST(ResilientOriginTest, OneBreakerGuardsTheOriginWhateverTheHost) {
  int calls = 0;
  ResilienceConfig config;
  config.breaker.failure_threshold = 2;
  config.fail_open = false;
  ResilientOrigin origin(
      config,
      [&calls](const Request&) {
        ++calls;
        return OriginResult::Fail(OriginErrorKind::kConnectFail, 1);
      },
      7);
  origin.Fetch(GetRequest(0, "a.example.com"));
  origin.Fetch(GetRequest(10, "a.example.com"));
  const int calls_before = calls;
  const FetchOutcome rejected = origin.Fetch(GetRequest(20, "b.example.com"));
  EXPECT_EQ(rejected.breaker, CircuitBreaker::State::kOpen);
  EXPECT_TRUE(rejected.rejected);
  EXPECT_EQ(calls, calls_before);
}

TEST(ResilientOriginTest, FailOpenDegradesToSingleAttempt) {
  int calls = 0;
  ResilienceConfig config;
  config.breaker.failure_threshold = 2;
  config.fail_open = true;
  ResilientOrigin origin(
      config,
      [&calls](const Request&) {
        ++calls;
        return OriginResult::Fail(OriginErrorKind::kConnectFail, 1);
      },
      7);
  origin.Fetch(GetRequest(0));
  origin.Fetch(GetRequest(10));
  const FetchOutcome degraded = origin.Fetch(GetRequest(20));
  EXPECT_FALSE(degraded.rejected);
  EXPECT_EQ(degraded.breaker, CircuitBreaker::State::kOpen);
  EXPECT_EQ(degraded.attempts, 1);  // No retry storm against a sick origin.
}

TEST(ResilientOriginTest, HalfOpenProbesRecoverTheBreaker) {
  bool healthy = false;
  ResilienceConfig config;
  config.breaker.failure_threshold = 1;
  config.breaker.open_duration = 1000;
  ResilientOrigin origin(
      config,
      [&healthy](const Request&) {
        return healthy ? HealthyPage() : OriginResult::Fail(OriginErrorKind::kConnectFail, 1);
      },
      7);
  origin.Fetch(GetRequest(0));  // Opens the breaker.
  healthy = true;
  const FetchOutcome probe1 = origin.Fetch(GetRequest(1000));
  EXPECT_TRUE(probe1.probe);
  EXPECT_TRUE(probe1.ok());
  const FetchOutcome probe2 = origin.Fetch(GetRequest(1001));
  EXPECT_TRUE(probe2.probe);
  const FetchOutcome closed = origin.Fetch(GetRequest(1002));
  EXPECT_EQ(closed.breaker, CircuitBreaker::State::kClosed);
  EXPECT_FALSE(closed.probe);
}

TEST(ResilientOriginTest, TransitionMetricsCountEdgesOnly) {
  MetricsRegistry registry;
  bool healthy = false;
  ResilienceConfig config;
  config.breaker.failure_threshold = 1;
  config.breaker.open_duration = 1000;
  ResilientOrigin origin(
      config,
      [&healthy](const Request&) {
        return healthy ? HealthyPage() : OriginResult::Fail(OriginErrorKind::kConnectFail, 1);
      },
      7);
  origin.BindMetrics(registry);

  origin.Fetch(GetRequest(0));     // closed -> open.
  origin.Fetch(GetRequest(500));   // Degraded fetch: no edge.
  healthy = true;
  origin.Fetch(GetRequest(1000));  // open -> half-open, first probe.
  origin.Fetch(GetRequest(1001));  // Second probe: half-open -> closed.
  origin.Fetch(GetRequest(1002));  // Steady state: no edge.
  origin.Fetch(GetRequest(1003));

  const RegistrySnapshot snapshot = registry.Scrape();
  EXPECT_EQ(snapshot.CounterValue("robodet_breaker_transitions_total", {{"to", "open"}}), 1u);
  EXPECT_EQ(snapshot.CounterValue("robodet_breaker_transitions_total", {{"to", "half_open"}}),
            1u);
  EXPECT_EQ(snapshot.CounterValue("robodet_breaker_transitions_total", {{"to", "closed"}}),
            1u);
  EXPECT_EQ(snapshot.CounterValue("robodet_breaker_probes_total", {{"result", "ok"}}), 2u);
}

}  // namespace
}  // namespace robodet
