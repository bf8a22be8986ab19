// Quickstart: stand up an instrumenting proxy in front of a synthetic
// site, drive one human browser and one robot through it, print the
// verdicts the detectors reach, then show what the observability layer
// saw: the Prometheus scrape and the robot session's request trace.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "src/robodet.h"

namespace {

using namespace robodet;

void PrintClassification(const char* who, const SessionState& session,
                         const Classification& c) {
  std::printf("%-18s -> %-7s (decided at request %d, %d requests total)\n", who,
              std::string(VerdictName(c.verdict)).c_str(), c.decided_at,
              session.request_count());
  for (const Evidence& e : c.evidence) {
    std::printf("    evidence: %.*s/%.*s at request %d\n", static_cast<int>(e.detector.size()),
                e.detector.data(), static_cast<int>(e.signal.size()), e.signal.data(),
                e.request_index);
  }
  const SessionSignals& sig = session.signals();
  std::printf("    signals: css@%d js_dl@%d js_exec@%d mouse@%d wrong_key@%d hidden@%d\n",
              sig.css_probe_at, sig.js_download_at, sig.js_executed_at, sig.mouse_event_at,
              sig.wrong_key_at, sig.hidden_link_at);
}

}  // namespace

int main() {
  // 1. A synthetic website and its origin server.
  SiteConfig site_config;
  site_config.num_pages = 40;
  Rng site_rng(2006);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);

  // 2. The instrumenting proxy (a CoDeeN node, in effect), with the §3.2
  // policy enforcing so the robot session actually gets blocked.
  SimClock clock;
  ProxyConfig proxy_config;
  proxy_config.host = site.host();
  proxy_config.num_decoys = 4;       // m decoy fetchers per beacon script.
  proxy_config.enable_policy = true;
  proxy_config.policy.max_get_per_minute = 30.0;  // Aggressive, for the demo.
  ProxyServer proxy(proxy_config, &clock,
                    [&origin](const Request& r) { return origin.Handle(r); }, 1);

  // Trace every request (sample_every=1 is demo-friendly; production would
  // sample 1/64 and rely on tail-sampling to keep the blocked ones).
  TraceRecorder tracer(TraceRecorder::Config{/*capacity=*/256, /*sample_every=*/1, {}});
  proxy.set_trace_recorder(&tracer);
  Gateway gateway(&proxy, &clock);

  // 3. One human with a standard browser...
  BrowserProfile profile = StandardBrowserProfiles()[1];  // Firefox 1.5.
  ClientIdentity human_id;
  human_id.ip = *IpAddress::Parse("10.0.0.1");
  human_id.user_agent = profile.user_agent;
  human_id.is_human = true;
  HumanConfig human_config;
  human_config.min_pages = 5;
  human_config.max_pages = 8;
  HumanBrowserClient human(human_id, Rng(11), &site, profile, human_config);

  // ... and one referrer-spam robot forging a browser User-Agent.
  ClientIdentity bot_id;
  bot_id.ip = *IpAddress::Parse("10.0.0.2");
  bot_id.user_agent = profile.user_agent;  // Forged; the proxy ignores it anyway.
  ReferrerSpammerClient robot(bot_id, Rng(12), &site, RobotConfig{});

  // 4. Drive both clients to completion.
  for (Client* client : {static_cast<Client*>(&human), static_cast<Client*>(&robot)}) {
    while (true) {
      const auto delay = client->Step(clock.Now(), gateway);
      if (!delay.has_value()) {
        break;
      }
      clock.Advance(*delay);
    }
  }

  // 5. Ask the detectors what they saw, then close both sessions: the proxy
  // counts a closed session's verdict under robodet_verdict_total when it
  // has more than 10 requests, so the scrape below shows these verdicts.
  std::printf("robodet quickstart — behavioural robot detection (USENIX ATC 2006)\n\n");
  const CombinedClassifier classifier;
  const SessionState& human_session =
      *proxy.sessions().Touch({human_id.ip, human_id.user_agent}, clock.Now());
  const SessionState& robot_session =
      *proxy.sessions().Touch({bot_id.ip, bot_id.user_agent}, clock.Now());
  PrintClassification("human (Firefox)", human_session,
                      classifier.ClassifyOnline(human_session.observation()));
  PrintClassification("referrer spammer", robot_session,
                      classifier.ClassifyOnline(robot_session.observation()));
  proxy.sessions().CloseAll();

  const RegistrySnapshot snapshot = proxy.metrics().Scrape();
  std::printf("\nproxy: %llu requests (%llu blocked), %llu pages instrumented, "
              "instrumentation overhead %.2f%% of bytes\n",
              static_cast<unsigned long long>(snapshot.CounterValue("robodet_requests_total")),
              static_cast<unsigned long long>(
                  snapshot.CounterValue("robodet_blocked_requests_total")),
              static_cast<unsigned long long>(
                  snapshot.CounterValue("robodet_pages_instrumented_total")),
              InstrumentationOverheadFraction(snapshot) * 100.0);

  // 6. The same numbers as a monitoring system would see them.
  std::printf("\n--- Prometheus scrape "
              "------------------------------------------------\n");
  std::printf("%s", ExportPrometheus(snapshot).c_str());

  // 7. The robot's trace: the span timeline ends at the policy decision.
  std::printf("--- robot trace "
              "------------------------------------------------------\n");
  for (const RequestTrace& trace : tracer.Snapshot()) {
    if (trace.blocked) {
      std::printf("%s", FormatTraceText(trace).c_str());
      break;
    }
  }
  return 0;
}
