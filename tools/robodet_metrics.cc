// robodet_metrics: runs a mixed-population simulation through the
// instrumenting proxy and dumps what the observability layer collected —
// the Prometheus scrape or JSON snapshot of the metrics registry, plus
// (with --traces) the retained request traces.
//
// Usage:
//   robodet_metrics [--format=prom|json] [--clients=200] [--seed=1]
//       [--traces] [--trace-capacity=128] [--sample-every=64] [--policy]
//       [--fault-rate=R] [--slow-rate=R/2] [--corrupt-rate=R/2]
//       [--fault-seed=1337] [--breaker-threshold=5]
//       [--breaker-cooldown-ms=30000] [--fail-closed] [--admission-rps=0]
//       [--state-dir=DIR] [--snapshot-interval=8192] [--crash-rate=0]
//       [--crash-restart-ms=30000] [--crash-seed=4242]
//
// robodet_verdict_total{class,source} is Table 1's last column: the proxy
// counts each session with more than 10 requests once, when the session
// closes, and the run closes every session at its end.
//
// With --fault-rate the scrape shows the resilient path end-to-end:
// robodet_origin_* fetch outcomes, robodet_breaker_* trips and probes,
// and robodet_degraded_* ladder decisions. With --state-dir and
// --crash-rate it shows the durability path: robodet_node_restarts_total
// crashes, robodet_persistence_* journal activity, robodet_recovery_*
// salvage results.
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
                 "usage: robodet_metrics [--format=prom|json] [--clients=200] "
                 "[--seed=1] [--traces] [--trace-capacity=128] "
                 "[--sample-every=64] [--policy]\n%s%s"
                 "robodet_verdict_total counts each session with more than 10 requests "
                 "once, when it closes; the run closes every session at its end.\n",
                 kChaosUsage, kPersistenceUsage);
    return 0;
  }

  ExperimentConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.num_clients = static_cast<size_t>(flags.GetInt("clients", 200));
  config.proxy.enable_policy = flags.GetBool("policy");
  ApplyChaosFlags(flags, &config);
  ApplyPersistenceFlags(flags, &config);
  Experiment experiment(config);

  TraceRecorder::Config trace_config;
  trace_config.capacity = static_cast<size_t>(flags.GetInt("trace-capacity", 128));
  trace_config.sample_every = static_cast<size_t>(flags.GetInt("sample-every", 64));
  TraceRecorder tracer(trace_config);
  const bool want_traces = flags.GetBool("traces");
  if (want_traces) {
    experiment.proxy().set_trace_recorder(&tracer);
  }

  experiment.Run();

  // Run() closes every session at its end, so the scrape holds each
  // session's verdict series as the proxy counted them on close.
  const RegistrySnapshot snapshot = experiment.proxy().metrics().Scrape();
  const std::string format = flags.GetString("format", "prom");
  if (format == "json") {
    std::printf("%s\n", ExportJson(snapshot).c_str());
  } else if (format == "prom") {
    std::printf("%s", ExportPrometheus(snapshot).c_str());
  } else {
    std::fprintf(stderr, "error: unknown --format=%s (want prom or json)\n", format.c_str());
    return 2;
  }

  if (want_traces) {
    const std::vector<RequestTrace> traces = tracer.Snapshot();
    if (format == "json") {
      std::printf("%s\n", ExportTracesJson(traces).c_str());
    } else {
      // Keep the stderr header out of the middle of stdout's block buffer
      // when both streams share a file (`tool > out 2>&1`).
      std::fflush(stdout);
      std::fprintf(stderr, "# traces: started=%llu retained=%zu evicted=%llu\n",
                   static_cast<unsigned long long>(tracer.started()), traces.size(),
                   static_cast<unsigned long long>(tracer.evicted()));
      for (const RequestTrace& trace : traces) {
        std::printf("%s", FormatTraceText(trace).c_str());
      }
    }
  }
  return 0;
}
