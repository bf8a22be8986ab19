// Deterministic chaos for the origin path: wraps any fallible origin
// handler and injects errors, latency, and body corruption according to a
// seeded schedule. Same seed + same request stream -> same fault schedule,
// which is what makes chaos runs reproducible and the resilience layer's
// counters comparable across configurations.
#ifndef ROBODET_SRC_SIM_FAULT_INJECTOR_H_
#define ROBODET_SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/http/origin_result.h"
#include "src/util/clock.h"
#include "src/util/rng.h"

namespace robodet {

struct FaultPlan {
  // Probability per fetch of a hard fault (timeout / connect-fail / reset /
  // 5xx, drawn uniformly among the four).
  double error_rate = 0.0;
  // Probability per fetch of 400 ms added service time.
  double slow_rate = 0.0;
  // Probability per fetch of a corrupted-but-delivered body (truncated
  // Content-Length, oversized padding, or a content-type lie, drawn
  // uniformly; oversize is skipped when oversize_bytes == 0).
  double corrupt_rate = 0.0;
  size_t oversize_bytes = 0;
  uint64_t seed = 1337;

  bool enabled() const { return error_rate > 0.0 || slow_rate > 0.0 || corrupt_rate > 0.0; }
};

// Seeded crash schedule for one proxy: it crashes with exponential
// inter-arrival gaps (a Poisson process, the standard PlanetLab restart
// model) and comes back restart_delay later. Same plan -> same schedule,
// so chaos runs with and without persistence see identical crashes.
struct CrashPlan {
  // Expected crashes per simulated hour. 0 disables.
  double crash_rate_per_hour = 0.0;
  // The proxy restarts (and recovers) this long after each crash.
  TimeMs restart_delay = 30 * kSecond;
  uint64_t seed = 4242;

  bool enabled() const { return crash_rate_per_hour > 0.0; }
};

// The crash times over [0, horizon), ascending. Pure function of (plan,
// horizon).
std::vector<TimeMs> GenerateCrashSchedule(const CrashPlan& plan, TimeMs horizon);

class FaultInjector {
 public:
  struct Counts {
    uint64_t total = 0;
    uint64_t errors = 0;     // Hard faults injected.
    uint64_t slowed = 0;
    uint64_t corrupted = 0;
  };

  FaultInjector(FaultPlan plan, FallibleOriginHandler inner)
      : plan_(plan), inner_(std::move(inner)), rng_(plan.seed) {}

  OriginResult operator()(const Request& request);

  const Counts& counts() const { return counts_; }

 private:
  OriginResult InjectHardFault(const Request& request);
  void CorruptBody(Response& response);

  FaultPlan plan_;
  FallibleOriginHandler inner_;
  Rng rng_;
  Counts counts_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_SIM_FAULT_INJECTOR_H_
