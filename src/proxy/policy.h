// Rate limiting / blocking policy (§3.2): "After we classify a session to
// belong to a robot, we further analyzed its behavior (by checking CGI
// request rate, GET request rate, error response codes, etc.), and blocked
// its traffic as soon as its behavior deviated from predefined thresholds."
#ifndef ROBODET_SRC_PROXY_POLICY_H_
#define ROBODET_SRC_PROXY_POLICY_H_

#include "src/core/verdict.h"
#include "src/obs/metrics.h"
#include "src/proxy/session.h"

namespace robodet {

struct PolicyConfig {
  // Behaviour thresholds, evaluated only on robot-classified sessions.
  double max_cgi_per_minute = 20.0;
  double max_get_per_minute = 120.0;
  int max_error_responses = 30;
  // Rates are meaningless over tiny windows; wait this long first.
  TimeMs min_observation = 30 * kSecond;
};

enum class PolicyAction {
  kAllow,
  kBlock,
};

class PolicyEngine {
 public:
  explicit PolicyEngine(PolicyConfig config) : config_(config) {}

  // Decides for the current request. `verdict` is the detector's current
  // opinion of the session. Once a session trips a threshold it stays
  // blocked (SessionState::blocked latches).
  PolicyAction Evaluate(SessionState& session, Verdict verdict, TimeMs now);

  // Counts block decisions into `registry` under robodet_policy_*; each
  // newly tripped session is labeled by the one threshold that fired. An
  // unbound engine counts nothing.
  void BindMetrics(MetricsRegistry& registry);

 private:
  struct Metrics {
    Counter* blocked_requests = nullptr;
    Counter* tripped_cgi_rate = nullptr;
    Counter* tripped_get_rate = nullptr;
    Counter* tripped_errors = nullptr;
  };

  PolicyConfig config_;
  Metrics metrics_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_POLICY_H_
