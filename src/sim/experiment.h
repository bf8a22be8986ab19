// End-to-end experiment driver: builds a site, an origin server, an
// instrumenting proxy and a mixed client population, then runs a
// discrete-event loop where each client step issues requests through the
// proxy. Closed sessions are labeled with ground truth (the simulation
// knows which client is human) and collected as SessionRecords — the input
// to every table/figure bench.
#ifndef ROBODET_SRC_SIM_EXPERIMENT_H_
#define ROBODET_SRC_SIM_EXPERIMENT_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/proxy/proxy_server.h"
#include "src/sim/fault_injector.h"
#include "src/sim/population.h"
#include "src/site/origin_server.h"
#include "src/site/site_model.h"
#include "src/util/clock.h"

namespace robodet {

struct SessionRecord {
  uint64_t session_id = 0;
  std::string client_type;
  bool truly_human = false;
  SessionObservation observation;
  std::vector<RequestEvent> events;
  TimeMs first_request = 0;
  TimeMs last_request = 0;

  int request_count() const { return observation.request_count; }
  const SessionSignals& signals() const { return observation.signals; }
};

struct ExperimentConfig {
  uint64_t seed = 1;
  size_t num_clients = 2000;
  // Client arrival times are uniform over this window, so sessions overlap
  // the way they would on a live proxy.
  TimeMs arrival_window = 12 * kHour;
  SiteConfig site;
  ProxyConfig proxy;
  PopulationMix mix;
  // Chaos schedule applied between the proxy and the origin. Disabled by
  // default (an all-zero plan injects nothing).
  FaultPlan faults;
  // Seeded proxy crash/restart schedule: at each event the proxy loses its
  // in-memory tables (recovering from disk when proxy.persistence is
  // configured). Serial mode only — the parallel driver has no global
  // timeline to order a crash against, so the plan is ignored there.
  CrashPlan crashes;

  // Worker threads driving clients. 1 keeps the classic serial
  // discrete-event loop. >1 fans clients across a pool: each client runs
  // its whole timeline on one worker with a private clock, the proxy runs
  // in concurrent mode, and records() is bit-identical to the serial run —
  // every client's request times, session splits, minted tokens and
  // beacon keys are pure functions of its own timeline, and the final
  // record stream is canonically sorted in both modes. The identity holds
  // as long as shared capacity limits never bite (key table global bound,
  // session capacity), faults are off and admission control is disabled;
  // those paths depend on cross-client interleaving by design.
  size_t num_threads = 1;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  // Runs every client to completion, then closes all sessions.
  void Run();

  const std::vector<SessionRecord>& records() const { return records_; }

  // The records with more than `min_requests` requests; Table 1's filter is
  // kTable1MinRequests.
  std::vector<const SessionRecord*> RecordsWithMinRequests(int min_requests) const;

  ProxyServer& proxy() { return *proxy_; }
  const FaultInjector& faults() const { return *faults_; }

  struct TypeStats {
    uint64_t clients = 0;
    uint64_t requests = 0;
    uint64_t blocked = 0;
  };
  const std::map<std::string, TypeStats>& type_stats() const { return type_stats_; }

  // Crash events applied during Run (serial mode only).
  uint64_t crashes_applied() const { return crashes_applied_; }

 private:
  // Runs every client to completion on a pool of `threads` workers; clients
  // are claimed via an atomic cursor and each runs on a private clock.
  void RunClientsParallel(std::vector<std::unique_ptr<Client>>& clients,
                          const std::vector<TimeMs>& arrivals, size_t threads);

  ExperimentConfig config_;
  SimClock clock_;
  SiteModel site_;
  std::unique_ptr<OriginServer> origin_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<ProxyServer> proxy_;
  std::vector<SessionRecord> records_;
  // Session-close callbacks fire on worker threads in parallel runs.
  std::mutex records_mu_;
  // The origin + fault injector are single-threaded machines; parallel
  // runs serialize calls into them (their simulated latency costs no wall
  // time, so this does not limit scaling — see bench/scale.cc for the
  // regime where origin waits are real).
  std::mutex origin_mu_;
  std::map<std::string, TypeStats> type_stats_;
  // Ground truth: client identity by IP.
  std::map<uint32_t, std::pair<std::string, bool>> identity_by_ip_;
  uint64_t crashes_applied_ = 0;
  bool ran_ = false;
};

}  // namespace robodet

#endif  // ROBODET_SRC_SIM_EXPERIMENT_H_
