#include "src/proxy/policy.h"

namespace robodet {

void PolicyEngine::BindMetrics(MetricsRegistry& registry) {
  metrics_.blocked_requests =
      registry.FindOrCreateCounter("robodet_policy_blocked_requests_total");
  metrics_.tripped_cgi_rate = registry.FindOrCreateCounter(
      "robodet_policy_blocked_sessions_total", {{"threshold", "cgi_rate"}});
  metrics_.tripped_get_rate = registry.FindOrCreateCounter(
      "robodet_policy_blocked_sessions_total", {{"threshold", "get_rate"}});
  metrics_.tripped_errors = registry.FindOrCreateCounter(
      "robodet_policy_blocked_sessions_total", {{"threshold", "errors"}});
}

PolicyAction PolicyEngine::Evaluate(SessionState& session, Verdict verdict, TimeMs now) {
  if (session.blocked()) {
    IncIfBound(metrics_.blocked_requests);
    return PolicyAction::kBlock;
  }
  if (verdict != Verdict::kRobot) {
    return PolicyAction::kAllow;
  }
  const TimeMs lifetime = now - session.first_request_time();
  if (lifetime < config_.min_observation) {
    return PolicyAction::kAllow;
  }
  const double minutes = static_cast<double>(lifetime) / static_cast<double>(kMinute);
  const double cgi_rate = static_cast<double>(session.cgi_requests()) / minutes;
  const double get_rate = static_cast<double>(session.get_requests()) / minutes;
  const bool cgi_tripped = cgi_rate > config_.max_cgi_per_minute;
  const bool get_tripped = get_rate > config_.max_get_per_minute;
  const bool errors_tripped = session.error_responses() > config_.max_error_responses;
  if (cgi_tripped || get_tripped || errors_tripped) {
    session.set_blocked(true);
    IncIfBound(metrics_.blocked_requests);
    if (cgi_tripped) {
      IncIfBound(metrics_.tripped_cgi_rate);
    } else if (get_tripped) {
      IncIfBound(metrics_.tripped_get_rate);
    } else {
      IncIfBound(metrics_.tripped_errors);
    }
    return PolicyAction::kBlock;
  }
  return PolicyAction::kAllow;
}

}  // namespace robodet
