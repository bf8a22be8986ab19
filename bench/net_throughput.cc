// End-to-end throughput of the real TCP front end: NetServer on loopback,
// driven by the in-process load generator. Same I/O-bound regime as
// scale.cc — the handler sleeps a real kOriginRttUs per request, so extra
// workers gain throughput only by overlapping origin waits across real
// sockets (epoll, accept spreading, write backpressure all in the path).
// Measures requests/second and latency quantiles at 1 and 4 workers.
//
// Output is `key=value` lines for tools/bench_to_json; `gate_` keys are
// the dimensionless ratios CI compares.
#include <chrono>
#include <cstdio>
#include <thread>

#include "src/http/request.h"
#include "src/http/wire.h"
#include "src/net/connection.h"
#include "src/net/loadgen.h"
#include "src/net/server.h"

namespace robodet {
namespace {

constexpr int kOriginRttUs = 300;

NetHandler MakeSleepingOrigin() {
  return [](Request&&) {
    // The emulated origin RTT: real wall time, so workers only gain
    // throughput by genuinely overlapping waits across connections.
    std::this_thread::sleep_for(std::chrono::microseconds(kOriginRttUs));
    ServedResponse served;
    served.response = MakeHtmlResponse("<html><body>bench page</body></html>");
    return served;
  };
}

LoadGenReport MeasureWorkers(int workers) {
  NetServerConfig config;
  config.workers = workers;
  MetricsRegistry registry;
  NetServer server(config, MakeSleepingOrigin(), registry);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "FATAL: server start failed: %s\n", error.c_str());
    return {};
  }

  LoadGenConfig load;
  load.port = server.port();
  // Enough concurrent closed-loop clients that every worker always has a
  // request in flight; the 300us sleep is the bottleneck, not the client.
  load.connections = workers * 8;
  load.requests_per_connection = 0;
  load.duration = 600;  // ms
  const LoadGenReport report = RunLoadGen(load);

  server.BeginDrain();
  server.Wait();
  return report;
}

}  // namespace
}  // namespace robodet

int main() {
  using namespace robodet;
  std::printf("net_origin_rtt_us=%d\n", kOriginRttUs);
  double rps1 = 0.0;
  double rps4 = 0.0;
  for (int workers : {1, 4}) {
    const LoadGenReport report = MeasureWorkers(workers);
    if (report.responses_2xx == 0) {
      std::fprintf(stderr, "FATAL: no responses at %d workers\n", workers);
      return 1;
    }
    if (workers == 1) {
      rps1 = report.requests_per_second;
    }
    if (workers == 4) {
      rps4 = report.requests_per_second;
    }
    std::printf("net_rps_w%d=%.0f\n", workers, report.requests_per_second);
    std::printf("net_p50_ms_w%d=%.2f\n", workers, report.latency_p50_ms);
    std::printf("net_p99_ms_w%d=%.2f\n", workers, report.latency_p99_ms);
  }
  std::printf("gate_net_speedup_w4=%.2f\n", rps1 > 0.0 ? rps4 / rps1 : 0.0);
  return 0;
}
