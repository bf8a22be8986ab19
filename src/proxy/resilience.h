// Fault tolerance for the serving path. CoDeeN stayed up for years on
// PlanetLab because origin failures were contained, not forwarded: this
// layer gives robodet's proxy the same property. It wraps the fallible
// origin with (1) a per-request deadline charged in simulated time,
// (2) bounded, jittered-exponential retries for idempotent requests,
// (3) a circuit breaker on the one origin (closed → open → half-open with a
// budgeted probe allowance), and (4) an admission controller that sheds
// robot-classified sessions first under overload. The degradation ladder
// (full instrumentation → beacon-only → pass-through) consumes the
// breaker state so every failure mode maps to a deliberate, observable
// serving decision, governed by an explicit fail-open/fail-closed knob.
#ifndef ROBODET_SRC_PROXY_RESILIENCE_H_
#define ROBODET_SRC_PROXY_RESILIENCE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "src/http/origin_result.h"
#include "src/obs/metrics.h"
#include "src/util/clock.h"
#include "src/util/rng.h"

namespace robodet {

// How much of the instrumentation pipeline a response actually received.
// The ladder is ordered: each step sheds more proxy work (and detection
// signal) than the one before. kFailClosed and kShed end the request
// without origin content at all.
enum class DegradationLevel {
  kFull,        // Normal path: every enabled probe injected.
  kBeaconOnly,  // Only the beacon script: slow origin or oversized rewrite.
  kPassThrough, // Served unmodified: origin error or breaker open.
  kFailClosed,  // Rejected (503): breaker open under fail-closed policy.
  kShed,        // Rejected (503): admission control under overload.
};

std::string_view DegradationLevelName(DegradationLevel level);

// Circuit breaker over consecutive failures. Deterministic: state changes
// only on recorded outcomes and on time passing (SimClock milliseconds),
// never on wall clock or unseeded randomness.
//
//   closed    --failure_threshold consecutive failures-->  open
//   open      --open_duration elapsed-->                   half-open
//   half-open --two probe successes-->                     closed
//   half-open --any probe failure-->                       open
//
// While half-open, at most three requests are granted probe status (full
// treatment); the rest are served as if the breaker were still open.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Config {
    int failure_threshold = 5;
    TimeMs open_duration = 30 * kSecond;
  };

  explicit CircuitBreaker(const Config& config) : config_(config) {}

  // Current state, performing the open → half-open transition when the
  // cooldown has elapsed. A clock that moved backwards keeps the breaker
  // open (negative elapsed time never counts as cooldown served).
  State StateAt(TimeMs now);

  // In half-open, grants one unit of the probe budget. False once the
  // budget is spent (or in any other state).
  bool TryAcquireProbe(TimeMs now);

  void RecordSuccess(TimeMs now, bool was_probe);
  void RecordFailure(TimeMs now, bool was_probe);

  uint64_t times_opened() const { return times_opened_; }

 private:
  void Open(TimeMs now);

  Config config_;
  State state_ = State::kClosed;
  TimeMs opened_at_ = 0;
  int consecutive_failures_ = 0;
  int probes_granted_ = 0;
  int probe_successes_ = 0;
  uint64_t times_opened_ = 0;
};

std::string_view BreakerStateName(CircuitBreaker::State state);

// Overload shedding (§3.2 policy interaction): when the proxy takes more
// than `budget_rps` requests in one simulated second, robot-classified
// sessions are shed first; above twice the budget everything is shed. A
// budget of 0 disables admission control. Thread-safe: the tumbling window
// is mutex-guarded (only touched when a budget is set).
class AdmissionController {
 public:
  enum class Decision { kAdmit, kShedRobots, kShedAll };

  explicit AdmissionController(uint32_t budget_rps) : budget_(budget_rps) {}

  // Counts one arriving request and decides. One-second tumbling window.
  Decision Admit(TimeMs now);

  uint32_t budget() const { return budget_; }

 private:
  const uint32_t budget_;
  std::mutex mu_;
  TimeMs window_start_ = -1;   // Guarded by mu_.
  uint64_t in_window_ = 0;     // Guarded by mu_.
};

struct ResilienceConfig {
  // Bodies above this are a typed oversized-body error (pass-through).
  size_t max_body_bytes = 4u << 20;
  CircuitBreaker::Config breaker;
  // fail-open serves uninstrumented pages while the origin is sick;
  // fail-closed rejects with 503 rather than serve undetectable traffic.
  bool fail_open = true;
  // Admission budget in requests per simulated second; 0 disables.
  uint32_t admission_rps = 0;
};

// Validates a syntactically delivered response against the fault model.
// Returns the typed error when the body cannot be trusted.
std::optional<OriginErrorKind> ValidateOriginResponse(const Response& response,
                                                      const ResilienceConfig& config);

// One resilient fetch, start to finish.
struct FetchOutcome {
  // Final response when any attempt delivered one (including an attached
  // 5xx page or an untrustworthy body served pass-through).
  std::optional<Response> response;
  // Final error when the fetch did not fully succeed.
  std::optional<OriginErrorKind> error;
  int attempts = 0;
  // Simulated ms spent on attempts + backoff, capped at the deadline.
  TimeMs latency = 0;
  // Breaker state that governed this fetch (before outcome recording).
  CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
  bool probe = false;    // This fetch consumed half-open probe budget.
  bool rejected = false; // Breaker open under fail-closed: origin untouched.

  bool ok() const { return !error.has_value() && response.has_value(); }
};

// The resilient origin pipeline: deadline + retry/backoff + breaker.
// Deterministic given (seed, request stream): jitter comes from an owned
// Rng, time from the requests themselves.
//
// Thread-safe: breaker/rng state is mutex-guarded, but the mutex is NOT
// held across the origin call itself, so concurrent fetches overlap their
// origin latency.
class ResilientOrigin {
 public:
  ResilientOrigin(ResilienceConfig config, FallibleOriginHandler origin, uint64_t seed);

  FetchOutcome Fetch(const Request& request);

  // Counts into `registry` under robodet_origin_* and robodet_breaker_*.
  // An unbound origin counts nothing.
  void BindMetrics(MetricsRegistry& registry);

 private:
  bool RetryableError(OriginErrorKind kind) const;
  void RecordTransition(CircuitBreaker::State from, CircuitBreaker::State to);

  struct Metrics {
    Counter* fetch_by_outcome[8] = {};  // Index 0 = ok, 1+kind otherwise.
    Counter* attempts = nullptr;
    Counter* retries = nullptr;
    Counter* rejected = nullptr;
    Counter* transitions_open = nullptr;
    Counter* transitions_half_open = nullptr;
    Counter* transitions_closed = nullptr;
    Counter* probes_ok = nullptr;
    Counter* probes_fail = nullptr;
    Gauge* breaker_state = nullptr;
    HistogramMetric* latency_ms = nullptr;
  };

  const ResilienceConfig config_;
  FallibleOriginHandler origin_;
  std::mutex mu_;
  Rng rng_;  // Guarded by mu_.
  // One breaker: a proxy fronts exactly one origin, whatever Host a client
  // names, so per-host breakers would only grow with client input. Guarded
  // by mu_.
  CircuitBreaker breaker_;
  // Last state reported to metrics, to turn state reads into transition
  // edges. Guarded by mu_.
  CircuitBreaker::State reported_ = CircuitBreaker::State::kClosed;
  Metrics m_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_RESILIENCE_H_
