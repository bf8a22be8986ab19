// The instrumenting proxy: robodet's equivalent of a CoDeeN node. It sits
// between clients and an origin handler, rewrites HTML responses with the
// detection probes of §2 (beacon script + mouse handler, UA-echo script,
// CSS probe, hidden-link trap), intercepts the probe fetches, maintains
// per-session signal state, and optionally enforces the §3.2 rate-limiting
// policy on robot-classified sessions.
#ifndef ROBODET_SRC_PROXY_PROXY_SERVER_H_
#define ROBODET_SRC_PROXY_PROXY_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "src/core/attestation.h"
#include "src/core/combined_classifier.h"
#include "src/core/verdict.h"
#include "src/http/origin_result.h"
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
  // snapshotted + journaled there and recovered on construction (and after
  // SimulateCrashRestart). See src/proxy/persistence/state_store.h.
  PersistenceConfig persistence;

  // Every N handled requests, expired beacon keys and idle sessions are
  // reaped opportunistically on the request path (0 disables). Each run
  // sweeps one table shard (round-robin), so the reap cost per request is
  // bounded by shard size, not table size.
  size_t maintenance_stride = 1024;

  // Multi-worker serving (bench/scale, the parallel Experiment driver):
  // Handle becomes callable from several threads at once. Cross-timeline
  // maintenance sweeps are skipped — one worker's clock says nothing about
  // another worker's sessions, and a sweep could free session state a
  // concurrent Handle still references — so tables rely on lazy per-entry
  // expiry plus capacity bounds instead.
  bool concurrent = false;

  // Observability. With metrics off, no registry is populated and the
  // ProxyStats compatibility view reads all-zero (only the overhead
  // bench runs that way).
  bool enable_metrics = true;

  uint64_t secret = 0x726f626f64657431ULL;
};

// Legacy aggregate counters. Since the obs subsystem landed this is a
// *view* materialized from the MetricsRegistry on each stats() call; the
// proxy itself only writes registry counters.
struct ProxyStats {
  uint64_t requests = 0;
  uint64_t blocked_requests = 0;
  uint64_t pages_instrumented = 0;
  uint64_t probe_hits_css = 0;
  uint64_t probe_hits_js_file = 0;
  uint64_t beacon_hits_ok = 0;
  uint64_t beacon_hits_wrong = 0;
  uint64_t ua_echo_hits = 0;
  uint64_t hidden_link_hits = 0;
  uint64_t captcha_passes = 0;
  uint64_t captcha_failures = 0;
  // Bandwidth accounting for the §3.2 overhead figure.
  uint64_t origin_bytes = 0;        // What the origin would have sent anyway.
  uint64_t instrumentation_bytes = 0;  // HTML growth + probe-object bytes.

  double OverheadFraction() const {
    const uint64_t total = origin_bytes + instrumentation_bytes;
    return total == 0 ? 0.0 : static_cast<double>(instrumentation_bytes) /
                                  static_cast<double>(total);
  }
};

class ProxyServer {
 public:
  using OriginHandler = std::function<Response(const Request&)>;
  // Judges the session for policy enforcement; defaults to the combined
  // classifier's online rule when unset.
  using RobotJudge = std::function<Verdict(const SessionState&)>;

  struct Result {
    Response response;
    bool blocked = false;
    uint64_t session_id = 0;
    // How much instrumentation this serving decision actually kept.
    DegradationLevel degraded = DegradationLevel::kFull;
  };

  // Primary constructor: a fallible origin routed through the resilience
  // layer (per-request deadline, bounded retries, per-origin breaker).
  ProxyServer(ProxyConfig config, SimClock* clock, FallibleOriginHandler origin,
              uint64_t rng_seed = 42);
  // Compatibility constructor for infallible origins; adapted via
  // WrapInfallibleOrigin (never reports errors, zero simulated latency).
  ProxyServer(ProxyConfig config, SimClock* clock, OriginHandler origin,
              uint64_t rng_seed = 42);

  // Runtime toggles: Figure 3's deployment timeline flips these per month.
  void EnableBrowserTest(bool on);
  void EnableHumanActivity(bool on);
  void EnablePolicy(bool on);
  void EnableCaptcha(bool on) { config_.enable_captcha = on; }
  void RequireAttestation(bool on) { config_.require_attestation = on; }
  void EnableAudioProbe(bool on) { config_.enable_audio_probe = on; }
  void HookLinks(bool on) { config_.hook_links = on; }

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

  SessionTable& sessions() { return sessions_; }
  KeyTable& keys() { return shared_keys_ != nullptr ? *shared_keys_ : key_table_; }

  // The resilience pipeline guarding the origin. Exposed so operators (and
  // tests) can force breakers open, flip fail-open, or inspect state.
  ResilientOrigin& resilience() { return resilient_; }
  void set_fail_open(bool fail_open) { resilient_.set_fail_open(fail_open); }
  void set_admission_budget(uint32_t rps) { admission_.set_budget(rps); }

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
  // Compatibility view over the registry (see ProxyStats).
  ProxyStats stats() const;
  const ProxyConfig& config() const { return config_; }
  CaptchaService& captcha() { return captcha_; }

  // The registry this proxy reports into. Owned by default; multi-node
  // deployments can aggregate by sharing one registry across nodes.
  MetricsRegistry& metrics() { return *registry_; }
  const MetricsRegistry& metrics() const { return *registry_; }
  void UseSharedMetrics(MetricsRegistry* registry);

  // Optional request tracing; nullptr (the default) disables it. The
  // recorder must outlive this server.
  void set_trace_recorder(TraceRecorder* recorder) { tracer_ = recorder; }
  TraceRecorder* trace_recorder() const { return tracer_; }

  // Judges a session with the configured judge (or the default combined
  // classifier) and records robodet_verdict_total{class,source}. The
  // source label is the signal behind the verdict's first matching piece
  // of evidence ("wrong_beacon_key", "css_probe_fetched", ...).
  Classification ClassifySession(const SessionState& session);

  void set_robot_judge(RobotJudge judge) { robot_judge_ = std::move(judge); }

  // Wires the trusted-input authority used to verify event attestations.
  void set_attestation_authority(const AttestationAuthority* authority) {
    attestation_ = authority;
  }

 private:
  Result HandleInstrumented(const Request& request, SessionState& session, int request_index,
                            TraceRecorder::Trace* trace);
  Response InstrumentPage(const Request& request, SessionState& session, Response response,
                          TraceRecorder::Trace* trace, bool beacon_only);
  // Picks the rung of the degradation ladder for an origin fetch outcome.
  DegradationLevel DecideDegradation(const FetchOutcome& fetch, const Response& response) const;
  // Every maintenance_stride requests: reap expired keys and idle sessions.
  void MaybeMaintainTables(TimeMs now);
  // The beacon's spec for one token: its keys, drawn from the start of the
  // token's stream, whose remaining draws shape the script.
  BeaconSpec DrawBeaconSpec(Rng& script_rng) const;
  // Records the links and embeds of a served page in the session.
  void RegisterServedContent(const Request& request, SessionState& session,
                             std::string_view html);
  // Journals the session's state after a mutation (no-op without
  // persistence).
  void NoteSessionMutation(SessionState& session);
  RequestEvent BuildEvent(const Request& request, const SessionState& session) const;
  std::string AbsoluteInstrUrl(const std::string& stem_and_name) const;
  Verdict JudgeSession(const SessionState& session) const;
  void BindMetrics();
  void RecordVerdict(const Classification& classification);

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
  };

  ProxyConfig config_;
  SimClock* clock_;  // Not owned.
  Rng rng_;
  TokenMinter minter_;
  SessionTable sessions_;
  KeyTable key_table_;
  KeyTable* shared_keys_ = nullptr;  // Not owned; overrides key_table_.
  std::unique_ptr<StateStore> state_store_;  // Null without a state_dir.
  PolicyEngine policy_;
  CaptchaService captcha_;
  ResilientOrigin resilient_;
  AdmissionController admission_;
  std::atomic<uint64_t> handled_{0};  // Drives the maintenance stride.
  RobotJudge robot_judge_;
  CombinedClassifier default_classifier_;
  const AttestationAuthority* attestation_ = nullptr;  // Not owned.
  std::unique_ptr<MetricsRegistry> owned_registry_;
  MetricsRegistry* registry_;  // Points at owned_registry_ unless shared.
  Handles m_;
  TraceRecorder* tracer_ = nullptr;  // Not owned; nullptr = no tracing.
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_PROXY_SERVER_H_
