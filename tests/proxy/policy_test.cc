#include "src/proxy/policy.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

SessionState MakeSession(TimeMs start = 0) {
  return SessionState(1, IpAddress(1), SharedUserAgent("ua"), start);
}

void AddRequests(SessionState& session, int cgi, int get, int errors, TimeMs spacing) {
  TimeMs t = session.first_request_time();
  RequestEvent cgi_ev;
  cgi_ev.kind = ResourceKind::kCgi;
  RequestEvent get_ev;
  RequestEvent err_ev;
  err_ev.status_class = 4;
  for (int i = 0; i < cgi; ++i) {
    session.RecordRequest(t += spacing, cgi_ev);
  }
  for (int i = 0; i < get; ++i) {
    session.RecordRequest(t += spacing, get_ev);
  }
  for (int i = 0; i < errors; ++i) {
    session.RecordRequest(t += spacing, err_ev);
  }
}

PolicyConfig StrictConfig() {
  PolicyConfig config;
  config.max_cgi_per_minute = 10.0;
  config.max_get_per_minute = 100.0;
  config.max_error_responses = 5;
  config.min_observation = kMinute;
  return config;
}

// robodet_policy_blocked_sessions_total summed over its threshold label.
uint64_t BlockedSessions(const RegistrySnapshot& snapshot) {
  uint64_t total = 0;
  for (const char* threshold : {"cgi_rate", "get_rate", "errors"}) {
    total += snapshot.CounterValue("robodet_policy_blocked_sessions_total",
                                   {{"threshold", threshold}});
  }
  return total;
}

TEST(PolicyTest, HumansNeverBlocked) {
  PolicyEngine policy(StrictConfig());
  SessionState session = MakeSession();
  AddRequests(session, 1000, 1000, 1000, 10);
  EXPECT_EQ(policy.Evaluate(session, Verdict::kHuman, 10 * kMinute), PolicyAction::kAllow);
  EXPECT_EQ(policy.Evaluate(session, Verdict::kUnknown, 10 * kMinute), PolicyAction::kAllow);
}

TEST(PolicyTest, CalmRobotAllowed) {
  PolicyEngine policy(StrictConfig());
  SessionState session = MakeSession();
  // 5 CGI requests over 5 minutes: 1/min, under the threshold.
  AddRequests(session, 5, 10, 0, kMinute / 3);
  EXPECT_EQ(policy.Evaluate(session, Verdict::kRobot, session.last_request_time()),
            PolicyAction::kAllow);
}

TEST(PolicyTest, CgiFloodBlocked) {
  MetricsRegistry registry;
  PolicyEngine policy(StrictConfig());
  policy.BindMetrics(registry);
  SessionState session = MakeSession();
  AddRequests(session, 100, 0, 0, kSecond);  // 60 cgi/min over ~100s.
  EXPECT_EQ(policy.Evaluate(session, Verdict::kRobot, session.last_request_time()),
            PolicyAction::kBlock);
  EXPECT_TRUE(session.blocked());
  const RegistrySnapshot snapshot = registry.Scrape();
  EXPECT_EQ(snapshot.CounterValue("robodet_policy_blocked_sessions_total",
                                  {{"threshold", "cgi_rate"}}),
            1u);
  EXPECT_EQ(BlockedSessions(snapshot), 1u);  // Exactly one label moves per trip.
}

TEST(PolicyTest, GetFloodBlocked) {
  PolicyEngine policy(StrictConfig());
  SessionState session = MakeSession();
  AddRequests(session, 0, 600, 0, 200);  // 300 get/min.
  EXPECT_EQ(policy.Evaluate(session, Verdict::kRobot, session.last_request_time()),
            PolicyAction::kBlock);
}

TEST(PolicyTest, ErrorCountBlocked) {
  PolicyEngine policy(StrictConfig());
  SessionState session = MakeSession();
  AddRequests(session, 0, 2, 20, 10 * kSecond);  // Slow but error-heavy.
  EXPECT_EQ(policy.Evaluate(session, Verdict::kRobot, session.last_request_time()),
            PolicyAction::kBlock);
}

TEST(PolicyTest, MinObservationGraceWindow) {
  PolicyEngine policy(StrictConfig());
  SessionState session = MakeSession();
  AddRequests(session, 20, 0, 0, 100);  // Violent burst but only 2s old.
  EXPECT_EQ(policy.Evaluate(session, Verdict::kRobot, session.last_request_time()),
            PolicyAction::kAllow);
}

TEST(PolicyTest, BlockLatches) {
  MetricsRegistry registry;
  PolicyEngine policy(StrictConfig());
  policy.BindMetrics(registry);
  SessionState session = MakeSession();
  AddRequests(session, 100, 0, 0, kSecond);
  ASSERT_EQ(policy.Evaluate(session, Verdict::kRobot, session.last_request_time()),
            PolicyAction::kBlock);
  // Even if the verdict later softens, the block stays.
  EXPECT_EQ(policy.Evaluate(session, Verdict::kUnknown, session.last_request_time() + kHour),
            PolicyAction::kBlock);
  const RegistrySnapshot snapshot = registry.Scrape();
  EXPECT_EQ(snapshot.CounterValue("robodet_policy_blocked_requests_total"), 2u);
  EXPECT_EQ(BlockedSessions(snapshot), 1u);
}

}  // namespace
}  // namespace robodet
