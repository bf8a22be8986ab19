// robodet_capture: run a CoDeeN-style traffic simulation against the
// instrumenting proxy and export the labeled session log as CSV — the
// capture half of the operator workflow (robodet_analyze is the other).
//
// Usage:
//   robodet_capture --clients=2000 --seed=1 --sessions=sessions.csv
//       --events=events.csv [--captcha] [--policy] [--pages=200] [--decoys=4]
//       [--state-dir=DIR] [--snapshot-interval=8192] [--crash-rate=0]
//       [--crash-restart-ms=30000] [--crash-seed=4242]
#include <cstdio>

#include "src/robodet.h"
#include "tools/chaos_flags.h"
#include "tools/flags.h"
#include "tools/persistence_flags.h"

using namespace robodet;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("help")) {
    std::fprintf(stderr,
                 "usage: robodet_capture --clients=N --seed=S --sessions=F --events=F\n"
                 "       [--captcha] [--policy] [--pages=N] [--decoys=M]\n%s%s",
                 kChaosUsage, kPersistenceUsage);
    return 0;
  }

  ExperimentConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.num_clients = static_cast<size_t>(flags.GetInt("clients", 2000));
  config.site.num_pages = static_cast<size_t>(flags.GetInt("pages", 200));
  config.proxy.num_decoys = static_cast<size_t>(flags.GetInt("decoys", 4));
  config.proxy.enable_captcha = flags.GetBool("captcha");
  config.proxy.enable_policy = flags.GetBool("policy");
  ApplyChaosFlags(flags, &config);
  ApplyPersistenceFlags(flags, &config);
  if (config.proxy.enable_captcha) {
    config.mix.human_captcha_attempt_prob = 0.38;
  }

  std::printf("capturing: %zu clients, seed %llu%s%s...\n", config.num_clients,
              static_cast<unsigned long long>(config.seed),
              config.proxy.enable_captcha ? ", captcha on" : "",
              config.proxy.enable_policy ? ", policy on" : "");
  Experiment experiment(config);
  experiment.Run();

  const RegistrySnapshot snapshot = experiment.proxy().metrics().Scrape();
  std::printf("done: %zu sessions, %llu requests (%llu blocked), overhead %s\n",
              experiment.records().size(),
              static_cast<unsigned long long>(snapshot.CounterValue("robodet_requests_total")),
              static_cast<unsigned long long>(
                  snapshot.CounterValue("robodet_blocked_requests_total")),
              FormatPercent(InstrumentationOverheadFraction(snapshot), 2).c_str());

  const std::string sessions_path = flags.GetString("sessions", "sessions.csv");
  const std::string events_path = flags.GetString("events", "events.csv");
  if (!WriteSessionsCsv(sessions_path, experiment.records()) ||
      !WriteEventsCsv(events_path, experiment.records())) {
    std::fprintf(stderr, "error: failed to write %s / %s\n", sessions_path.c_str(),
                 events_path.c_str());
    return 1;
  }
  std::printf("wrote %s and %s\n", sessions_path.c_str(), events_path.c_str());
  return 0;
}
