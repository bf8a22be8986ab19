#include "src/proxy/resilience.h"

#include <algorithm>
#include <utility>

#include "src/util/strings.h"

namespace robodet {
namespace {

// Half-open probe allowance: requests granted full treatment while the
// breaker tests whether the origin recovered.
constexpr int kHalfOpenProbes = 3;

// Probe successes that prove the origin recovered and close the breaker.
constexpr int kHalfOpenSuccesses = 2;

// Per-request origin budget (simulated ms) across attempts and backoff.
constexpr TimeMs kDeadline = 2 * kSecond;

// Single-attempt budget for degraded (breaker-open, fail-open) fetches.
constexpr TimeMs kDegradedDeadline = 500;

// Retries for idempotent requests (GET/HEAD); total attempts = retries+1.
constexpr int kMaxRetries = 2;

// Jittered exponential backoff between retries: base * multiplier^(n-1),
// capped, then multiplied by a uniform draw in [1-jitter, 1+jitter].
constexpr TimeMs kBackoffBase = 50;
constexpr double kBackoffMultiplier = 2.0;
constexpr TimeMs kBackoffCap = 500;
constexpr double kBackoffJitter = 0.2;

}  // namespace

std::string_view DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull:
      return "full";
    case DegradationLevel::kBeaconOnly:
      return "beacon_only";
    case DegradationLevel::kPassThrough:
      return "pass_through";
    case DegradationLevel::kFailClosed:
      return "fail_closed";
    case DegradationLevel::kShed:
      return "shed";
  }
  return "full";
}

std::string_view BreakerStateName(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "closed";
}

CircuitBreaker::State CircuitBreaker::StateAt(TimeMs now) {
  if (state_ == State::kOpen && now - opened_at_ >= config_.open_duration) {
    state_ = State::kHalfOpen;
    probes_granted_ = 0;
    probe_successes_ = 0;
  }
  return state_;
}

bool CircuitBreaker::TryAcquireProbe(TimeMs now) {
  if (StateAt(now) != State::kHalfOpen) {
    return false;
  }
  if (probes_granted_ >= kHalfOpenProbes) {
    return false;
  }
  ++probes_granted_;
  return true;
}

void CircuitBreaker::RecordSuccess(TimeMs now, bool was_probe) {
  (void)now;
  if (state_ == State::kHalfOpen && was_probe) {
    if (++probe_successes_ >= kHalfOpenSuccesses) {
      state_ = State::kClosed;
      consecutive_failures_ = 0;
      probes_granted_ = 0;
      probe_successes_ = 0;
    }
    return;
  }
  if (state_ == State::kClosed) {
    consecutive_failures_ = 0;
  }
  // Successes of degraded single attempts while open do not change state:
  // recovery is only proven through half-open probes.
}

void CircuitBreaker::RecordFailure(TimeMs now, bool was_probe) {
  if (state_ == State::kHalfOpen && was_probe) {
    Open(now);
    return;
  }
  if (state_ == State::kClosed && ++consecutive_failures_ >= config_.failure_threshold) {
    Open(now);
  }
}

void CircuitBreaker::Open(TimeMs now) {
  state_ = State::kOpen;
  opened_at_ = now;
  consecutive_failures_ = 0;
  probes_granted_ = 0;
  probe_successes_ = 0;
  ++times_opened_;
}

AdmissionController::Decision AdmissionController::Admit(TimeMs now) {
  if (budget_ == 0) {
    return Decision::kAdmit;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const TimeMs window = now - (now % kSecond);
  if (window != window_start_) {
    window_start_ = window;
    in_window_ = 0;
  }
  ++in_window_;
  if (in_window_ > uint64_t{2} * budget_) {
    return Decision::kShedAll;
  }
  if (in_window_ > budget_) {
    return Decision::kShedRobots;
  }
  return Decision::kAdmit;
}

std::optional<OriginErrorKind> ValidateOriginResponse(const Response& response,
                                                      const ResilienceConfig& config) {
  if (response.body.size() > config.max_body_bytes) {
    return OriginErrorKind::kOversizedBody;
  }
  if (const auto cl = response.headers.Get("Content-Length"); cl.has_value()) {
    if (const auto declared = ParseU64(*cl);
        declared.has_value() && *declared > response.body.size()) {
      return OriginErrorKind::kTruncatedBody;
    }
  }
  if (response.IsHtml() && !response.body.empty() && !LooksLikeHtml(response.body)) {
    return OriginErrorKind::kBadContentType;
  }
  return std::nullopt;
}

ResilientOrigin::ResilientOrigin(ResilienceConfig config, FallibleOriginHandler origin,
                                 uint64_t seed)
    : config_(config), origin_(std::move(origin)), rng_(seed), breaker_(config_.breaker) {}

void ResilientOrigin::BindMetrics(MetricsRegistry& registry) {
  m_.fetch_by_outcome[0] =
      registry.FindOrCreateCounter("robodet_origin_fetch_total", {{"outcome", "ok"}});
  for (int kind = 0; kind < 7; ++kind) {
    m_.fetch_by_outcome[1 + kind] = registry.FindOrCreateCounter(
        "robodet_origin_fetch_total",
        {{"outcome", std::string(OriginErrorKindName(static_cast<OriginErrorKind>(kind)))}});
  }
  m_.attempts = registry.FindOrCreateCounter("robodet_origin_attempts_total");
  m_.retries = registry.FindOrCreateCounter("robodet_origin_retries_total");
  m_.rejected = registry.FindOrCreateCounter("robodet_breaker_rejected_total");
  m_.transitions_open =
      registry.FindOrCreateCounter("robodet_breaker_transitions_total", {{"to", "open"}});
  m_.transitions_half_open =
      registry.FindOrCreateCounter("robodet_breaker_transitions_total", {{"to", "half_open"}});
  m_.transitions_closed =
      registry.FindOrCreateCounter("robodet_breaker_transitions_total", {{"to", "closed"}});
  m_.probes_ok =
      registry.FindOrCreateCounter("robodet_breaker_probes_total", {{"result", "ok"}});
  m_.probes_fail =
      registry.FindOrCreateCounter("robodet_breaker_probes_total", {{"result", "fail"}});
  m_.breaker_state = registry.FindOrCreateGauge("robodet_breaker_state");
  m_.latency_ms = registry.FindOrCreateHistogram("robodet_origin_latency_ms",
                                                  ExponentialBuckets(1.0, 2.0, 12));
}

void ResilientOrigin::RecordTransition(CircuitBreaker::State from, CircuitBreaker::State to) {
  if (from == to) {
    return;
  }
  switch (to) {
    case CircuitBreaker::State::kOpen:
      IncIfBound(m_.transitions_open);
      break;
    case CircuitBreaker::State::kHalfOpen:
      IncIfBound(m_.transitions_half_open);
      break;
    case CircuitBreaker::State::kClosed:
      IncIfBound(m_.transitions_closed);
      break;
  }
  if (m_.breaker_state != nullptr) {
    m_.breaker_state->Set(static_cast<int64_t>(to));
  }
}

bool ResilientOrigin::RetryableError(OriginErrorKind kind) const {
  switch (kind) {
    case OriginErrorKind::kTimeout:
    case OriginErrorKind::kConnectFail:
    case OriginErrorKind::kReset:
    case OriginErrorKind::kServerError:
      return true;
    // Delivered-but-untrustworthy bodies are served pass-through rather
    // than refetched: the origin answered, it just cannot be instrumented.
    case OriginErrorKind::kTruncatedBody:
    case OriginErrorKind::kOversizedBody:
    case OriginErrorKind::kBadContentType:
      return false;
  }
  return false;
}

FetchOutcome ResilientOrigin::Fetch(const Request& request) {
  FetchOutcome out;
  const TimeMs now = request.time;

  // Pre-check under the lock: take the governing state and probe budget.
  // The origin attempts below run unlocked so concurrent fetches overlap
  // their origin latency.
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const CircuitBreaker::State before = breaker_.StateAt(now);
    out.breaker = before;
    RecordTransition(reported_, before);  // open→half_open cooldown edge, if any.
    reported_ = before;

    full = before == CircuitBreaker::State::kClosed;
    if (before == CircuitBreaker::State::kHalfOpen && breaker_.TryAcquireProbe(now)) {
      out.probe = true;
      full = true;
    }
  }
  if (!full && !config_.fail_open) {
    out.rejected = true;
    out.error = OriginErrorKind::kConnectFail;
    IncIfBound(m_.rejected);
    return out;
  }

  const TimeMs deadline = full ? kDeadline : kDegradedDeadline;
  const int max_attempts = full ? kMaxRetries + 1 : 1;
  const bool idempotent = request.method == Method::kGet || request.method == Method::kHead;

  TimeMs spent = 0;
  bool hard_failure = false;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    out.attempts = attempt;
    IncIfBound(m_.attempts);
    if (attempt > 1) {
      IncIfBound(m_.retries);
    }

    OriginResult result = origin_(request);
    const TimeMs attempt_latency = std::max<TimeMs>(result.latency, 0);
    const bool timed_out = spent + attempt_latency > deadline;
    spent = std::min<TimeMs>(spent + attempt_latency, deadline);

    std::optional<OriginErrorKind> err;
    if (timed_out) {
      err = OriginErrorKind::kTimeout;
    } else if (!result.ok()) {
      err = result.error->kind;
    } else if (Is5xx(result.response->status)) {
      err = OriginErrorKind::kServerError;
    } else {
      err = ValidateOriginResponse(*result.response, config_);
    }

    // A timed-out attempt yields no usable body; everything else keeps the
    // last response seen for possible pass-through.
    if (!timed_out && result.response.has_value()) {
      out.response = std::move(result.response);
    }

    if (!err.has_value()) {
      out.error.reset();
      hard_failure = false;
      break;
    }
    out.error = err;
    hard_failure = RetryableError(*err);
    if (!hard_failure) {
      break;  // Untrustworthy body: serve pass-through, no refetch.
    }
    if (timed_out && !out.response.has_value()) {
      out.response.reset();
    }
    if (!idempotent || attempt >= max_attempts) {
      break;
    }
    // Jittered exponential backoff, charged against the deadline.
    double backoff = static_cast<double>(kBackoffBase);
    for (int i = 1; i < attempt; ++i) {
      backoff *= kBackoffMultiplier;
    }
    backoff = std::min(backoff, static_cast<double>(kBackoffCap));
    double draw;
    {
      std::lock_guard<std::mutex> lock(mu_);
      draw = rng_.UniformDouble();
    }
    const double jitter = 1.0 - kBackoffJitter + 2.0 * kBackoffJitter * draw;
    const TimeMs wait = static_cast<TimeMs>(backoff * jitter);
    if (spent + wait >= deadline) {
      break;  // No budget left to retry in.
    }
    spent += wait;
  }
  out.latency = spent;

  // Feed the breaker: only fetches it governed with full trust (closed, or
  // a half-open probe) move the state machine; hard errors count, soft
  // (served pass-through) do not.
  const bool counts = out.breaker == CircuitBreaker::State::kClosed || out.probe;
  if (counts) {
    std::lock_guard<std::mutex> lock(mu_);
    if (out.error.has_value() && hard_failure) {
      breaker_.RecordFailure(now, out.probe);
      if (out.probe) {
        IncIfBound(m_.probes_fail);
      }
    } else if (!out.error.has_value()) {
      breaker_.RecordSuccess(now, out.probe);
      if (out.probe) {
        IncIfBound(m_.probes_ok);
      }
    }
    const CircuitBreaker::State after = breaker_.StateAt(now);
    RecordTransition(reported_, after);
    reported_ = after;
  }

  if (m_.latency_ms != nullptr) {
    m_.latency_ms->Observe(static_cast<double>(out.latency));
  }
  const size_t outcome_index =
      out.error.has_value() ? 1 + static_cast<size_t>(*out.error) : 0;
  IncIfBound(m_.fetch_by_outcome[outcome_index]);
  return out;
}

}  // namespace robodet
