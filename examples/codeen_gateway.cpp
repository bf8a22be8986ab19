// codeen_gateway: a CoDeeN-style open-proxy node under mixed traffic, with
// detection driving aggressive rate limiting (§3.2). Runs a full mixed
// population through the proxy with policy enforcement on, then reports
// per-client-type outcomes: how much traffic each type got through, how
// much was blocked, and what the detectors concluded.
//
// Build & run:  ./build/examples/codeen_gateway [num_clients]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/robodet.h"

namespace {

using namespace robodet;

struct TypeOutcome {
  int sessions = 0;
  int judged_human = 0;
  int judged_robot = 0;
  int judged_unknown = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const size_t num_clients = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 600;

  ExperimentConfig config;
  config.seed = 20060106;
  config.num_clients = num_clients;
  config.site.num_pages = 150;
  config.proxy.enable_policy = true;
  config.proxy.policy.max_cgi_per_minute = 20;
  config.proxy.policy.max_get_per_minute = 150;
  config.proxy.policy.max_error_responses = 25;
  config.proxy.policy.min_observation = 20 * kSecond;

  std::printf("codeen_gateway: %zu clients through an enforcing proxy node...\n\n",
              num_clients);
  Experiment experiment(config);
  experiment.Run();

  std::map<std::string, TypeOutcome> outcomes;
  for (const SessionRecord& r : experiment.records()) {
    if (r.request_count() <= 10) {
      continue;
    }
    TypeOutcome& o = outcomes[r.client_type];
    ++o.sessions;
    // Reconstruct the final verdict from the recorded signals (the same
    // rule the proxy's policy judge used online).
    const Verdict v = CombinedClassifier::SetAlgebraVerdict(r.signals());
    if (v == Verdict::kHuman) {
      ++o.judged_human;
    } else if (v == Verdict::kRobot) {
      ++o.judged_robot;
    } else {
      ++o.judged_unknown;
    }
  }

  std::printf("%-20s %9s %12s %12s %10s %10s\n", "client type", "sessions", "judged human",
              "judged robot", "requests", "blocked");
  for (const auto& [type, outcome] : outcomes) {
    const auto stats_it = experiment.type_stats().find(type);
    const uint64_t requests =
        stats_it != experiment.type_stats().end() ? stats_it->second.requests : 0;
    const uint64_t blocked =
        stats_it != experiment.type_stats().end() ? stats_it->second.blocked : 0;
    std::printf("%-20s %9d %12d %12d %10llu %10llu\n", type.c_str(), outcome.sessions,
                outcome.judged_human, outcome.judged_robot,
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(blocked));
  }

  const RegistrySnapshot snapshot = experiment.proxy().metrics().Scrape();
  const auto count = [&snapshot](std::string_view name, const Labels& labels = {}) {
    return static_cast<unsigned long long>(snapshot.CounterValue(name, labels));
  };
  std::printf("\nproxy totals: %llu requests (%llu blocked), %llu pages instrumented\n",
              count("robodet_requests_total"), count("robodet_blocked_requests_total"),
              count("robodet_pages_instrumented_total"));
  std::printf("beacon hits: %llu correct-key (mouse proof), %llu wrong-key (robot proof)\n",
              count("robodet_beacon_hits_total", {{"result", "ok"}}),
              count("robodet_beacon_hits_total", {{"result", "wrong_key"}}));
  std::printf("instrumentation bandwidth overhead: %.2f%%\n",
              InstrumentationOverheadFraction(snapshot) * 100.0);
  return 0;
}
