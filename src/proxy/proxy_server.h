// The instrumenting proxy: robodet's equivalent of a CoDeeN node. It sits
// between clients and an origin handler, rewrites HTML responses with the
// detection probes of §2 (beacon script + mouse handler, UA-echo script,
// CSS probe, hidden-link trap), intercepts the probe fetches, maintains
// per-session signal state, and optionally enforces the §3.2 rate-limiting
// policy on robot-classified sessions.
#ifndef ROBODET_SRC_PROXY_PROXY_SERVER_H_
#define ROBODET_SRC_PROXY_PROXY_SERVER_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "src/core/attestation.h"
#include "src/core/combined_classifier.h"
#include "src/core/verdict.h"
#include "src/http/origin_result.h"
#include "src/html/document.h"
#include "src/http/request.h"
#include "src/js/generator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/proxy/captcha.h"
#include "src/proxy/key_table.h"
#include "src/proxy/persistence/state_store.h"
#include "src/proxy/policy.h"
#include "src/proxy/resilience.h"
#include "src/proxy/session_table.h"
#include "src/proxy/token_minter.h"
#include "src/util/clock.h"
#include "src/util/rng.h"

namespace robodet {

struct ProxyConfig {
  // Host under which instrumented URLs are minted (the site's own host so
  // probes look first-party).
  std::string host = "www.example.com";
  // URL namespace for everything we inject.
  std::string instr_prefix = "/__rd/";

  // §2.1 human activity detection.
  bool enable_human_activity = true;
  bool enable_ua_echo = true;
  // m: number of decoy fetchers per beacon script. Blind object fetchers
  // are caught with probability m/(m+1) per beacon request.
  size_t num_decoys = 4;
  bool hook_links = false;

  // §2.2 browser testing.
  bool enable_css_probe = true;
  bool enable_hidden_link = true;
  // The silent-audio probe variant; off by default (the CoDeeN deployment
  // used the CSS probe).
  bool enable_audio_probe = false;

  // CAPTCHA endpoint (ground-truth labels).
  bool enable_captcha = false;

  // §4.1 extension: require hardware input attestation on beacon events.
  // Needs an AttestationAuthority wired via set_attestation_authority.
  bool require_attestation = false;

  // §3.2 policy.
  bool enable_policy = false;
  PolicyConfig policy;

  SessionTable::Config session;
  KeyTable::Config keys;

  // Fault tolerance for the origin path (deadline, retries, breaker,
  // degradation ladder, admission control). See src/proxy/resilience.h.
  ResilienceConfig resilience;

  // Crash-safe state: with a state_dir set, the key and session tables are
  // journaled there and recovered on construction (and after
  // SimulateCrashRestart). See src/proxy/persistence/state_store.h.
  PersistenceConfig persistence;

  // Multi-worker serving (bench/scale, a parallel Experiment, the socket
  // daemon): Handle is called from several threads at once. Handle
  // serializes each client in every mode; this flag only skips the
  // cross-timeline maintenance sweeps — one worker's clock says nothing
  // about another worker's sessions, and a sweep could free session state
  // a concurrent Handle still references — so tables rely on lazy
  // per-entry expiry plus capacity bounds instead.
  bool concurrent = false;

  uint64_t secret = 0x726f626f64657431ULL;
};

// The §3.2 bandwidth overhead from a proxy's registry: instrumentation
// bytes (HTML growth plus probe objects, robodet_instrumentation_bytes_total)
// as a fraction of everything served, those plus the bytes the origin would
// have sent anyway (robodet_origin_bytes_total). 0 before any traffic.
double InstrumentationOverheadFraction(const RegistrySnapshot& snapshot);

class ProxyServer {
 public:
  using OriginHandler = std::function<Response(const Request&)>;

  struct Result {
    Response response;
    bool blocked = false;
    uint64_t session_id = 0;
    // The session's online verdict by the combined classifier once this
    // request is recorded. Not counted: robodet_verdict_total counts a
    // session once, when it closes.
    Verdict verdict = Verdict::kUnknown;
    // How much instrumentation this serving decision actually kept.
    DegradationLevel degraded = DegradationLevel::kFull;
  };

  // Primary constructor: a fallible origin routed through the resilience
  // layer (per-request deadline, bounded retries, per-origin breaker). The
  // config is fixed for the proxy's lifetime; a different setting means a
  // new proxy.
  ProxyServer(ProxyConfig config, SimClock* clock, FallibleOriginHandler origin,
              uint64_t rng_seed = 42);
  // Compatibility constructor for infallible origins; adapted via
  // WrapInfallibleOrigin (never reports errors, zero simulated latency).
  ProxyServer(ProxyConfig config, SimClock* clock, OriginHandler origin,
              uint64_t rng_seed = 42);

  // Serves one request and records it in the client's session. Safe from
  // several threads at once: requests from one client IP run one at a time.
  Result Handle(const Request& request);

  // Builds the beacon script served under `token` (also used by tests to
  // check determinism). `out_key` receives the real key k.
  GeneratedBeacon BuildBeaconForToken(std::string_view token, std::string* out_key) const;

  // What a page served under `token` needs of its beacon: the real key k
  // and the onmousemove handler code. Derived by replaying the script's
  // draws without building it, and always equal to BuildBeaconForToken's
  // key and handler_code.
  struct PageBeacon {
    std::string real_key;
    std::string handler_code;
  };
  PageBeacon DerivePageBeacon(std::string_view token) const;

  // Records the links and embeds of a page served at `page_url` in
  // `session`: `refs` are spans of `html`, resolved against `page_url`.
  // Allocates nothing beyond the session's URL sets' own growth.
  static void RegisterServedContent(const Url& page_url, std::string_view html,
                                    const ServedRefs& refs, SessionState& session);

  SessionTable& sessions() { return sessions_; }
  KeyTable& keys() { return shared_keys_ != nullptr ? *shared_keys_ : key_table_; }

  // Multi-node deployments can share one beacon key table so that a key
  // issued by any node validates on any other (see sim/cluster.h and the
  // ablation_cluster bench for why). The table must outlive this server.
  void UseSharedKeyTable(KeyTable* table) { shared_keys_ = table; }

  // Simulated node crash + restart: drops all in-memory detection state
  // (sessions vanish without close records, keys are forgotten) and, when
  // persistence is configured, recovers from disk exactly as a restarted
  // process would. Not safe concurrently with Handle.
  void SimulateCrashRestart(TimeMs now);

  // The persistence layer, or nullptr when no state_dir is configured.
  StateStore* state_store() { return state_store_.get(); }
  const ProxyConfig& config() const { return config_; }

  // The registry this proxy reports into, the one place its counts live.
  MetricsRegistry& metrics() { return registry_; }
  const MetricsRegistry& metrics() const { return registry_; }

  // Optional request tracing; nullptr (the default) disables it. The
  // recorder must outlive this server.
  void set_trace_recorder(TraceRecorder* recorder) { tracer_ = recorder; }

  // Wires the trusted-input authority used to verify event attestations.
  void set_attestation_authority(const AttestationAuthority* authority) {
    attestation_ = authority;
  }

 private:
  // Handle's work once the client is locked and its session found; Handle
  // fills in the session id and verdict.
  Result HandleSession(const Request& request, SessionState& session);
  // Answers a request in the probe namespace and records its signal.
  Response HandleInstrumented(const Request& request, SessionState& session, int request_index,
                              TraceRecorder::Trace* trace);
  Response InstrumentPage(const Request& request, SessionState& session, Response response,
                          TraceRecorder::Trace* trace, bool beacon_only);
  // Picks the rung of the degradation ladder for an origin fetch outcome.
  DegradationLevel DecideDegradation(const FetchOutcome& fetch, const Response& response) const;
  // Every kMaintenanceStride requests: reap expired keys and idle sessions.
  void MaybeMaintainTables(TimeMs now);
  // The beacon every page carries, less its keys: host, prefix, level,
  // padding and config.num_decoys empty decoy keys.
  static BeaconSpec BeaconShape(const ProxyConfig& config);
  // The beacon's spec for one token: beacon_shape_ with its keys, drawn
  // from the start of the token's stream, whose remaining draws shape the
  // script.
  BeaconSpec DrawBeaconSpec(Rng& script_rng) const;
  // Journals the session's state after a mutation (no-op without
  // persistence).
  void NoteSessionMutation(SessionState& session);
  // The request's event as the session sees it; `url_hash` is
  // request.url.Hash().
  RequestEvent BuildEvent(const Request& request, uint64_t url_hash,
                          const SessionState& session) const;
  Verdict JudgeSession(const SessionState& session) const;
  // The session table's close observer: journals the close (with
  // persistence) and counts the session's final verdict.
  void OnSessionClosed(const SessionState& session);
  void BindMetrics();
  // The stripe of client_mutexes_ that serializes `ip`'s requests.
  std::mutex& ClientMutex(IpAddress ip);

  // Pre-resolved handles so the request path never does a registry lookup.
  struct Handles {
    Counter* requests = nullptr;
    Counter* blocked = nullptr;
    Counter* pages_instrumented = nullptr;
    Counter* probe_css = nullptr;
    Counter* probe_js_file = nullptr;
    Counter* probe_audio = nullptr;
    Counter* beacon_ok = nullptr;
    Counter* beacon_wrong = nullptr;
    Counter* ua_echo = nullptr;
    Counter* hidden_link = nullptr;
    Counter* captcha_pass = nullptr;
    Counter* captcha_fail = nullptr;
    Counter* origin_bytes = nullptr;
    Counter* instr_bytes = nullptr;
    Counter* degraded[5] = {};  // Indexed by DegradationLevel.
    Counter* shed_robots = nullptr;
    Counter* shed_all = nullptr;
    Counter* maintenance_runs = nullptr;
    Counter* maintenance_keys = nullptr;
    Counter* maintenance_sessions = nullptr;
    Counter* restarts = nullptr;
    HistogramMetric* handle_us = nullptr;
    HistogramMetric* rewrite_us = nullptr;
    HistogramMetric* page_key_us = nullptr;
    HistogramMetric* served_refs_us = nullptr;
    HistogramMetric* script_build_us = nullptr;
  };

  const ProxyConfig config_;
  // BeaconShape(config_): all DeriveBeaconHandler reads of a spec.
  const BeaconSpec beacon_shape_;
  SimClock* clock_;  // Not owned.
  // Declared before every member that binds a handle into it, so it
  // outlives them.
  MetricsRegistry registry_;
  Rng rng_;
  TokenMinter minter_;
  SessionTable sessions_;
  // A session's state mutates outside the table's shard locks, so Handle
  // holds its client's stripe for the whole request. Striped rather than
  // one per client so memory stays fixed; unrelated clients rarely share a
  // stripe.
  std::array<std::mutex, 64> client_mutexes_;
  KeyTable key_table_;
  KeyTable* shared_keys_ = nullptr;  // Not owned; overrides key_table_.
  std::unique_ptr<StateStore> state_store_;  // Null without a state_dir.
  PolicyEngine policy_;
  CaptchaService captcha_;
  ResilientOrigin resilient_;
  AdmissionController admission_;
  std::atomic<uint64_t> handled_{0};  // Drives the maintenance stride.
  CombinedClassifier default_classifier_;
  const AttestationAuthority* attestation_ = nullptr;  // Not owned.
  Handles m_;
  TraceRecorder* tracer_ = nullptr;  // Not owned; nullptr = no tracing.
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_PROXY_SERVER_H_
