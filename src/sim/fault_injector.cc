#include "src/sim/fault_injector.h"

#include <string>
#include <utility>

#include "src/util/hash.h"

namespace robodet {
namespace {

// Service time a slow fetch adds (simulated ms): past the proxy's 250 ms
// slow-origin threshold, inside its 2 s deadline.
constexpr TimeMs kSlowLatency = 400;

}  // namespace

std::vector<TimeMs> GenerateCrashSchedule(const CrashPlan& plan, TimeMs horizon) {
  std::vector<TimeMs> crashes;
  if (!plan.enabled() || horizon <= 0) {
    return crashes;
  }
  const double mean_gap_ms = static_cast<double>(kHour) / plan.crash_rate_per_hour;
  // Salted so the schedule does not share a stream with other draws seeded
  // from plan.seed.
  Rng rng(Mix64(plan.seed ^ 0x9e3779b97f4a7c15ULL));
  double t = rng.Exponential(mean_gap_ms);
  while (t < static_cast<double>(horizon)) {
    crashes.push_back(static_cast<TimeMs>(t));
    // The proxy cannot crash again before it has restarted.
    t += static_cast<double>(plan.restart_delay) + rng.Exponential(mean_gap_ms);
  }
  return crashes;
}

OriginResult FaultInjector::operator()(const Request& request) {
  ++counts_.total;
  if (!plan_.enabled()) {
    return inner_(request);
  }

  // Fixed draw order keeps the schedule a pure function of (seed, stream).
  const double error_draw = rng_.UniformDouble();
  const double slow_draw = rng_.UniformDouble();
  const double corrupt_draw = rng_.UniformDouble();

  if (error_draw < plan_.error_rate) {
    ++counts_.errors;
    return InjectHardFault(request);
  }

  OriginResult result = inner_(request);
  if (slow_draw < plan_.slow_rate) {
    ++counts_.slowed;
    result.latency += kSlowLatency;
  }
  if (corrupt_draw < plan_.corrupt_rate && result.ok() && result.response.has_value() &&
      !result.response->body.empty()) {
    ++counts_.corrupted;
    CorruptBody(*result.response);
  }
  return result;
}

OriginResult FaultInjector::InjectHardFault(const Request& request) {
  (void)request;
  switch (rng_.UniformU64(4)) {
    case 0:
      // A timeout burns real waiting: long service time plus the typed error
      // so even a generous deadline sees it as one.
      return OriginResult::Fail(OriginErrorKind::kTimeout, 10 * kSecond);
    case 1:
      return OriginResult::Fail(OriginErrorKind::kConnectFail, 1);
    case 2:
      return OriginResult::Fail(OriginErrorKind::kReset, 5);
    default: {
      OriginResult result = OriginResult::Ok(
          MakeResponse(StatusCode::kInternalServerError, ResourceKind::kHtml,
                       "<html><body>Injected server error.</body></html>"),
          5);
      return result;
    }
  }
}

void FaultInjector::CorruptBody(Response& response) {
  const uint64_t variant = rng_.UniformU64(plan_.oversize_bytes > 0 ? 3 : 2);
  switch (variant) {
    case 0:
      // Truncation: the wire delivered fewer bytes than the origin declared.
      response.headers.Set("Content-Length", std::to_string(response.body.size() + 1024));
      break;
    case 1:
      // Content-type lie: keeps the text/html label over a binary payload.
      response.body.assign(response.body.size(), '\x01');
      break;
    default:
      // Oversize: pad the body past the configured hard cap.
      response.body.append(plan_.oversize_bytes, 'x');
      response.headers.Set("Content-Length", std::to_string(response.body.size()));
      break;
  }
}

}  // namespace robodet
