// robodet_serve: the detection proxy on a real TCP port. Wires the epoll
// front end (src/net) to a ProxyServer in concurrent mode over a generated
// origin site, stamps requests from a WallClock, and exposes the
// observability registry on an admin namespace:
//
//   robodet_serve --port=8080 --workers=4
//   curl http://127.0.0.1:8080/page/0.html
//   curl http://127.0.0.1:8080/__admin/metrics        # Prometheus text
//   curl http://127.0.0.1:8080/__admin/metrics.json
//   curl http://127.0.0.1:8080/__admin/traces.json
//
// SIGTERM/SIGINT drain gracefully: listeners close, in-flight requests
// finish with Connection: close, stragglers are cut at --drain-timeout-ms.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "src/robodet.h"
#include "src/util/hash.h"
#include "tools/flags.h"

namespace robodet {
namespace {

constexpr char kUsage[] =
    "usage: robodet_serve [--port=8080] [--bind=127.0.0.1] [--workers=2]\n"
    "       [--max-connections=1024] [--site-pages=50] [--site-seed=31]\n"
    "       [--origin-rtt-us=0] [--trust-xff] [--enable-policy]\n"
    "       [--read-timeout-ms=10000] [--idle-timeout-ms=60000]\n"
    "       [--write-timeout-ms=10000] [--drain-timeout-ms=5000]\n"
    "       [--trace-sample=64] [--state-dir=DIR] [--snapshot-interval=8192]\n"
    "       [--run-ms=0]   (0 = serve until SIGTERM/SIGINT)\n";

Response AdminResponse(std::string body, const char* content_type) {
  Response response;
  response.status = StatusCode::kOk;
  response.headers.Set("Content-Type", content_type);
  response.body = std::move(body);
  return response;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.GetBool("help")) {
    std::fputs(kUsage, stderr);
    return 0;
  }

  // Block the shutdown signals in every thread before any is spawned; a
  // dedicated sigwait thread turns them into a graceful drain instead of
  // an async-signal-context handler.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  // The one clock both layers read: requests are stamped and sessions
  // aged in real milliseconds since process start.
  WallClock clock;

  // Origin: a generated site, pre-rendered so the handler is callable
  // from every worker at once (OriginServer keeps mutable state; the
  // daemon's origin must not).
  SiteConfig site_config;
  site_config.num_pages = static_cast<size_t>(flags.GetInt("site-pages", 50));
  Rng site_rng(static_cast<uint64_t>(flags.GetInt("site-seed", 31)));
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  std::vector<std::string> pages;
  pages.reserve(site_config.num_pages);
  for (size_t i = 0; i < site_config.num_pages; ++i) {
    pages.push_back(site.RenderPage(i));
  }
  const long origin_rtt_us = flags.GetInt("origin-rtt-us", 0);

  ProxyConfig proxy_config;
  proxy_config.host = site.host();
  proxy_config.concurrent = flags.GetInt("workers", 2) > 1;
  proxy_config.enable_policy = flags.GetBool("enable-policy");
  proxy_config.persistence.state_dir = flags.GetString("state-dir", "");
  proxy_config.persistence.snapshot_interval_records =
      static_cast<uint64_t>(flags.GetInt("snapshot-interval", 8192));
  ProxyServer proxy(
      proxy_config, &clock,
      FallibleOriginHandler([&pages, origin_rtt_us](const Request& r) {
        if (origin_rtt_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(origin_rtt_us));
        }
        return OriginResult::Ok(
            MakeHtmlResponse(pages[Fnv1a(r.url.path()) % pages.size()]));
      }),
      /*rng_seed=*/37);

  TraceRecorder tracer(TraceRecorder::Config{
      .capacity = 128,
      .sample_every = static_cast<uint32_t>(flags.GetInt("trace-sample", 64)),
      .now_ns = nullptr});  // The monotonic clock.
  proxy.set_trace_recorder(&tracer);

  const bool trust_xff = flags.GetBool("trust-xff");

  NetHandler handler = [&](Request&& request) -> ServedResponse {
    ServedResponse served;
    const std::string& path = request.url.path();
    if (path.rfind("/__admin/", 0) == 0) {
      // Admin namespace: never proxied, never instrumented.
      const RegistrySnapshot snapshot = proxy.metrics().Scrape();
      if (path == "/__admin/healthz") {
        served.response = AdminResponse("ok\n", "text/plain");
      } else if (path == "/__admin/metrics") {
        served.response =
            AdminResponse(ExportPrometheus(snapshot), "text/plain; version=0.0.4");
      } else if (path == "/__admin/metrics.json") {
        served.response = AdminResponse(ExportJson(snapshot), "application/json");
      } else if (path == "/__admin/traces.json") {
        served.response =
            AdminResponse(ExportTracesJson(tracer.Snapshot()), "application/json");
      } else {
        served.response.status = StatusCode::kNotFound;
        served.response.headers.Set("Content-Type", "text/plain");
        served.response.body = "unknown admin endpoint\n";
      }
      return served;
    }

    if (trust_xff) {
      // Loopback load tools stamp synthetic client addresses here so the
      // session table sees distinct visitors instead of one 127.0.0.1.
      if (const auto xff = request.headers.Get("X-Forwarded-For"); xff.has_value()) {
        const auto parsed = IpAddress::ParseForwardedFor(*xff);
        if (parsed.has_value()) {
          request.client_ip = *parsed;
        }
      }
    }

    // Two connections from one client can land on two workers; Handle
    // serializes them itself.
    ProxyServer::Result result = proxy.Handle(request);
    served.response = std::move(result.response);
    // Robot flag for the socket layer's shed policy.
    served.robot = result.verdict == Verdict::kRobot;
    return served;
  };

  NetServerConfig net_config;
  net_config.bind_ip = flags.GetString("bind", "127.0.0.1");
  net_config.port = static_cast<uint16_t>(flags.GetInt("port", 8080));
  net_config.workers = static_cast<int>(flags.GetInt("workers", 2));
  net_config.max_connections = static_cast<size_t>(flags.GetInt("max-connections", 1024));
  net_config.limits.read_timeout = flags.GetInt("read-timeout-ms", 10000);
  net_config.limits.idle_timeout = flags.GetInt("idle-timeout-ms", 60000);
  net_config.limits.write_timeout = flags.GetInt("write-timeout-ms", 10000);
  net_config.drain_timeout = flags.GetInt("drain-timeout-ms", 5000);
  net_config.clock = &clock;

  NetServer server(net_config, std::move(handler), proxy.metrics());
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "robodet_serve: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "robodet_serve: listening on %s:%u (%d workers, host %s)\n",
               net_config.bind_ip.c_str(), server.port(), net_config.workers,
               proxy_config.host.c_str());

  // --run-ms: self-terminate for harnesses that cannot signal reliably.
  std::thread timer;
  const long run_ms = flags.GetInt("run-ms", 0);
  if (run_ms > 0) {
    timer = std::thread([run_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
      ::kill(::getpid(), SIGTERM);
    });
  }

  std::thread signal_thread([&sigs, &server] {
    int sig = 0;
    sigwait(&sigs, &sig);
    std::fprintf(stderr, "robodet_serve: %s, draining...\n", strsignal(sig));
    server.BeginDrain();
  });

  server.Wait();
  signal_thread.join();
  if (timer.joinable()) {
    timer.join();
  }

  const RegistrySnapshot final_scrape = proxy.metrics().Scrape();
  const auto count = [&final_scrape](std::string_view name, const Labels& labels = {}) {
    return static_cast<unsigned long long>(final_scrape.CounterValue(name, labels));
  };
  std::fprintf(stderr,
               "robodet_serve: done. accepted=%llu requests=%llu parse_errors=%llu "
               "shed=%llu timeouts=%llu\n",
               count("robodet_net_accepted_total"), count("robodet_net_requests_total"),
               count("robodet_net_parse_errors_total"),
               count("robodet_net_shed_total", {{"mode", "reject"}}) +
                   count("robodet_net_shed_total", {{"mode", "evict"}}),
               count("robodet_net_timeouts_total", {{"kind", "read"}}) +
                   count("robodet_net_timeouts_total", {{"kind", "idle"}}) +
                   count("robodet_net_timeouts_total", {{"kind", "write"}}));
  return 0;
}

}  // namespace
}  // namespace robodet

int main(int argc, char** argv) { return robodet::Main(argc, argv); }
