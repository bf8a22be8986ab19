#include "src/proxy/proxy_server.h"

#include <utility>

#include "src/html/document.h"
#include "src/html/injector.h"
#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace robodet {
namespace {

// Sanitizes an agent string exactly as the UA-echo script does, so the
// echoed value and the header-derived value are comparable.
std::string SanitizeAgent(std::string_view agent) {
  std::string out = AsciiLower(agent);
  out = ReplaceAll(out, " ", "");
  out = ReplaceAll(out, "/", "-");
  return out;
}

Response TinyJpeg() {
  Response r = MakeResponse(StatusCode::kOk, ResourceKind::kImage, std::string(64, 'j'));
  r.headers.Set("Cache-Control", "no-cache, no-store");
  return r;
}

Response EmptyCss() {
  Response r = MakeResponse(StatusCode::kOk, ResourceKind::kCss, "/* */");
  r.headers.Set("Cache-Control", "no-cache, no-store");
  return r;
}

Response Blocked() {
  return MakeResponse(StatusCode::kForbidden, ResourceKind::kHtml,
                      "<html><body>Access denied.</body></html>");
}

Response FailClosed() {
  Response r = MakeResponse(StatusCode::kServiceUnavailable, ResourceKind::kHtml,
                            "<html><body>Upstream unavailable.</body></html>");
  r.headers.Set("Cache-Control", "no-cache, no-store");
  return r;
}

Response Overloaded() {
  Response r = MakeResponse(StatusCode::kServiceUnavailable, ResourceKind::kHtml,
                            "<html><body>Service overloaded; try again later.</body></html>");
  r.headers.Set("Retry-After", "1");
  r.headers.Set("Cache-Control", "no-cache, no-store");
  return r;
}

// Every this many handled requests, expired beacon keys and idle sessions
// are reaped on the request path. Each run sweeps one table shard
// (round-robin), so the reap cost per request is bounded by shard size,
// not table size.
constexpr uint64_t kMaintenanceStride = 1024;

// Origin responses slower than this (simulated ms) are served beacon-only.
constexpr TimeMs kSlowOrigin = 250;

// Bodies above this are served beacon-only: a full rewrite costs too much.
// (Above ResilienceConfig::max_body_bytes they are not instrumented at all.)
constexpr size_t kMaxRewriteBytes = 1u << 20;

// Decorrelates the resilience layer's jitter stream from the proxy's token
// stream while keeping both a pure function of the configured seed.
constexpr uint64_t kResilienceSeedSalt = 0x726573696c696e74ULL;

// Serve-path mint entropy: a pure function of the session's own timeline —
// the session id already folds in client IP, user agent and session start,
// and the (time, request_count) pair distinguishes the requests within it.
// Tokens minted from this are therefore identical across runs and across
// worker interleavings, which is what makes the parallel simulation driver
// bit-reproducible. The kind's mint tag separates the several tokens minted
// per page.
uint64_t MintEntropy(const SessionState& session, TimeMs now, ProbeKind kind) {
  return HashCombine(
      HashCombine(HashCombine(session.id(), static_cast<uint64_t>(now)),
                  static_cast<uint64_t>(session.request_count())),
      static_cast<uint64_t>(kind));
}

// The beacon script's obfuscation: identifier renaming plus string
// splitting. The page path learns the dispatcher's renamed name by
// replaying the generator's draws (DeriveBeaconHandler), which holds up to
// level 3; level 3 would also pad the script to kBeaconPadBytes (the
// paper's measured scripts were ~1KB).
constexpr int kBeaconObfuscationLevel = 2;
constexpr size_t kBeaconPadBytes = 1024;
static_assert(kBeaconObfuscationLevel <= 3, "DeriveBeaconHandler replays levels 0-3 only");

// Observes the microseconds from construction to scope exit into `hist`.
class ScopedDurationUs {
 public:
  explicit ScopedDurationUs(HistogramMetric* hist) : hist_(hist), t0_(MonotonicNanos()) {}
  ScopedDurationUs(const ScopedDurationUs&) = delete;
  ScopedDurationUs& operator=(const ScopedDurationUs&) = delete;
  ~ScopedDurationUs() { hist_->Observe(static_cast<double>(MonotonicNanos() - t0_) / 1000.0); }

 private:
  HistogramMetric* hist_;
  uint64_t t0_;
};

// Microsecond buckets 1us..8.2ms; rewrite and full-handle latencies land
// mid-range, probe hits in the first buckets.
std::vector<double> LatencyBucketsUs() { return ExponentialBuckets(1.0, 2.0, 14); }

}  // namespace

double InstrumentationOverheadFraction(const RegistrySnapshot& snapshot) {
  const uint64_t instrumentation = snapshot.CounterValue("robodet_instrumentation_bytes_total");
  const uint64_t total = snapshot.CounterValue("robodet_origin_bytes_total") + instrumentation;
  return total == 0 ? 0.0 : static_cast<double>(instrumentation) / static_cast<double>(total);
}

ProxyServer::ProxyServer(ProxyConfig config, SimClock* clock, FallibleOriginHandler origin,
                         uint64_t rng_seed)
    : config_(std::move(config)),
      beacon_shape_(BeaconShape(config_)),
      clock_(clock),
      rng_(rng_seed),
      minter_(config_.secret, &rng_),
      sessions_(config_.session),
      key_table_(config_.keys),
      policy_(config_.policy),
      captcha_(&minter_),
      resilient_(config_.resilience, std::move(origin), rng_seed ^ kResilienceSeedSalt),
      admission_(config_.resilience.admission_rps) {
  if (config_.persistence.enabled()) {
    state_store_ = std::make_unique<StateStore>(config_.persistence, &key_table_, &sessions_);
    key_table_.set_observer(state_store_.get());
  }
  sessions_.set_close_observer([this](const SessionState& s) { OnSessionClosed(s); });
  BindMetrics();
  if (state_store_ != nullptr) {
    state_store_->Recover(clock_ != nullptr ? clock_->Now() : 0);
  }
}

ProxyServer::ProxyServer(ProxyConfig config, SimClock* clock, OriginHandler origin,
                         uint64_t rng_seed)
    : ProxyServer(std::move(config), clock, WrapInfallibleOrigin(std::move(origin)),
                  rng_seed) {}

void ProxyServer::BindMetrics() {
  m_.requests = registry_.FindOrCreateCounter("robodet_requests_total");
  m_.blocked = registry_.FindOrCreateCounter("robodet_blocked_requests_total");
  m_.pages_instrumented = registry_.FindOrCreateCounter("robodet_pages_instrumented_total");
  m_.probe_css = registry_.FindOrCreateCounter("robodet_probe_hits_total", {{"kind", "css"}});
  m_.probe_js_file =
      registry_.FindOrCreateCounter("robodet_probe_hits_total", {{"kind", "js_file"}});
  m_.probe_audio =
      registry_.FindOrCreateCounter("robodet_probe_hits_total", {{"kind", "audio"}});
  m_.ua_echo =
      registry_.FindOrCreateCounter("robodet_probe_hits_total", {{"kind", "ua_echo"}});
  m_.hidden_link =
      registry_.FindOrCreateCounter("robodet_probe_hits_total", {{"kind", "hidden_link"}});
  m_.beacon_ok =
      registry_.FindOrCreateCounter("robodet_beacon_hits_total", {{"result", "ok"}});
  m_.beacon_wrong =
      registry_.FindOrCreateCounter("robodet_beacon_hits_total", {{"result", "wrong_key"}});
  m_.captcha_pass =
      registry_.FindOrCreateCounter("robodet_captcha_total", {{"result", "pass"}});
  m_.captcha_fail =
      registry_.FindOrCreateCounter("robodet_captcha_total", {{"result", "fail"}});
  m_.origin_bytes = registry_.FindOrCreateCounter("robodet_origin_bytes_total");
  m_.instr_bytes = registry_.FindOrCreateCounter("robodet_instrumentation_bytes_total");
  for (int level = 0; level < 5; ++level) {
    m_.degraded[level] = registry_.FindOrCreateCounter(
        "robodet_degraded_total",
        {{"level", std::string(DegradationLevelName(static_cast<DegradationLevel>(level)))}});
  }
  m_.shed_robots = registry_.FindOrCreateCounter("robodet_shed_total", {{"scope", "robots"}});
  m_.shed_all = registry_.FindOrCreateCounter("robodet_shed_total", {{"scope", "all"}});
  m_.maintenance_runs = registry_.FindOrCreateCounter("robodet_maintenance_runs_total");
  m_.maintenance_keys =
      registry_.FindOrCreateCounter("robodet_maintenance_keys_expired_total");
  m_.maintenance_sessions =
      registry_.FindOrCreateCounter("robodet_maintenance_sessions_closed_total");
  m_.restarts = registry_.FindOrCreateCounter("robodet_node_restarts_total");
  m_.handle_us =
      registry_.FindOrCreateHistogram("robodet_handle_duration_us", LatencyBucketsUs());
  m_.rewrite_us =
      registry_.FindOrCreateHistogram("robodet_rewrite_duration_us", LatencyBucketsUs());
  m_.page_key_us =
      registry_.FindOrCreateHistogram("robodet_page_key_duration_us", LatencyBucketsUs());
  m_.served_refs_us =
      registry_.FindOrCreateHistogram("robodet_served_refs_duration_us", LatencyBucketsUs());
  m_.script_build_us =
      registry_.FindOrCreateHistogram("robodet_script_build_duration_us", LatencyBucketsUs());
  sessions_.BindMetrics(registry_);
  key_table_.BindMetrics(registry_);
  policy_.BindMetrics(registry_);
  resilient_.BindMetrics(registry_);
  if (state_store_ != nullptr) {
    state_store_->BindMetrics(registry_);
  }
}

Verdict ProxyServer::JudgeSession(const SessionState& session) const {
  return default_classifier_.ClassifyOnline(session.observation()).verdict;
}

void ProxyServer::OnSessionClosed(const SessionState& session) {
  if (state_store_ != nullptr) {
    state_store_->OnSessionClosed(session);
  }
  // Table 1's last column: the class each analyzed session lands in, and
  // the signal behind it ("wrong_beacon_key", "css_probe_fetched", ...).
  if (session.request_count() <= kTable1MinRequests) {
    return;
  }
  const Classification classification = default_classifier_.ClassifyOnline(session.observation());
  registry_
      .FindOrCreateCounter("robodet_verdict_total",
                           {{"class", std::string(VerdictName(classification.verdict))},
                            {"source", std::string(VerdictSource(classification))}})
      ->Inc();
}

std::mutex& ProxyServer::ClientMutex(IpAddress ip) {
  // Multiplicative mixing: client IPs are often sequential (one NAT block,
  // one load generator), and low bits alone would pile them onto adjacent
  // stripes. Two clients sharing a stripe costs serialization, never
  // correctness.
  const uint64_t mixed = static_cast<uint64_t>(ip.value()) * 0x9e3779b97f4a7c15ULL;
  return client_mutexes_[(mixed >> 32) % client_mutexes_.size()];
}

BeaconSpec ProxyServer::BeaconShape(const ProxyConfig& config) {
  BeaconSpec shape;
  shape.host = config.host;
  shape.path_prefix = config.instr_prefix;
  shape.decoy_keys.resize(config.num_decoys);
  shape.obfuscation_level = kBeaconObfuscationLevel;
  shape.pad_to_bytes = kBeaconPadBytes;
  return shape;
}

BeaconSpec ProxyServer::DrawBeaconSpec(Rng& script_rng) const {
  BeaconSpec spec = beacon_shape_;
  spec.real_key = script_rng.HexKey128();
  for (std::string& key : spec.decoy_keys) {
    key = script_rng.HexKey128();
  }
  return spec;
}

GeneratedBeacon ProxyServer::BuildBeaconForToken(std::string_view token,
                                                 std::string* out_key) const {
  // Everything about the script is a pure function of the token, so
  // serving the script later needs no storage: same seed, same draws.
  Rng script_rng(minter_.SeedFor(token));
  const BeaconSpec spec = DrawBeaconSpec(script_rng);
  if (out_key != nullptr) {
    *out_key = spec.real_key;
  }
  return GenerateBeaconScript(spec, script_rng);
}

ProxyServer::PageBeacon ProxyServer::DerivePageBeacon(std::string_view token) const {
  // DrawBeaconSpec's draws: the real key, then the decoys', which the
  // handler does not depend on and so are skipped, not formatted.
  Rng script_rng(minter_.SeedFor(token));
  PageBeacon beacon;
  beacon.real_key = script_rng.HexKey128();
  script_rng.SkipHexKeys128(beacon_shape_.decoy_keys.size());
  beacon.handler_code = DeriveBeaconHandler(beacon_shape_, script_rng);
  return beacon;
}

RequestEvent ProxyServer::BuildEvent(const Request& request, uint64_t url_hash,
                                     const SessionState& session) const {
  RequestEvent ev;
  ev.kind = request.Kind();
  ev.is_head = request.method == Method::kHead;
  ev.is_favicon = ev.kind == ResourceKind::kFavicon;
  ev.has_referrer = request.HasReferrer();
  if (ev.has_referrer) {
    ev.unseen_referrer = !session.visited_urls().Contains(request.Referrer());
  }
  ev.is_embedded = session.served_embeds().ContainsHash(url_hash);
  ev.is_link_follow = session.served_links().ContainsHash(url_hash);
  return ev;
}

ProxyServer::Result ProxyServer::Handle(const Request& request) {
  // Serializes this client (see client_mutexes_). Taken before the timer
  // so the histogram measures work, not waiting.
  const std::lock_guard<std::mutex> client_lock(ClientMutex(request.client_ip));
  // Observes the full per-request latency on scope exit, whatever path
  // the request takes below.
  const ScopedDurationUs timer(m_.handle_us);

  m_.requests->Inc();
  // Reap before Touch so the returned session pointer cannot be invalidated
  // by the idle sweep.
  MaybeMaintainTables(request.time);
  SessionState& session = *sessions_.Touch({request.client_ip, request.UserAgent()}, request.time);
  Result result = HandleSession(request, session);
  result.session_id = session.id();
  result.verdict = JudgeSession(session);
  return result;
}

ProxyServer::Result ProxyServer::HandleSession(const Request& request, SessionState& session) {
  const TimeMs now = request.time;
  // Tail-sampling assist: a session already under a block is always worth
  // a trace, independent of the 1/N head sample.
  TraceScope trace_scope(tracer_, request.url.path(), /*force=*/session.blocked());
  TraceRecorder::Trace* trace = trace_scope.get();
  if (trace != nullptr) {
    trace->set_session_id(session.id());
  }
  // The request URL's hash, as the session's URL sets key it: hashed once,
  // never spelled out.
  const uint64_t url_hash = request.url.Hash();

  // Overload shedding: past the admission budget, robot-classified
  // sessions go first; past twice the budget, everything goes.
  if (admission_.budget() > 0) {
    const AdmissionController::Decision admit = admission_.Admit(now);
    bool shed = admit == AdmissionController::Decision::kShedAll;
    Verdict verdict = Verdict::kUnknown;
    if (admit == AdmissionController::Decision::kShedRobots) {
      SpanScope span(trace, "classify");
      verdict = JudgeSession(session);
      shed = verdict == Verdict::kRobot;
    }
    if (shed) {
      (admit == AdmissionController::Decision::kShedAll ? m_.shed_all : m_.shed_robots)->Inc();
      m_.degraded[static_cast<int>(DegradationLevel::kShed)]->Inc();
      RequestEvent shed_ev = BuildEvent(request, url_hash, session);
      shed_ev.status_class = 5;
      session.RecordRequest(now, shed_ev);
      NoteSessionMutation(session);
      if (trace != nullptr) {
        trace->SetOutcome(true, VerdictName(verdict), "admission");
      }
      Result result;
      result.response = Overloaded();
      result.degraded = DegradationLevel::kShed;
      return result;
    }
  }

  // Policy gate first: a blocked session stays blocked.
  if (config_.enable_policy) {
    Verdict verdict;
    {
      SpanScope span(trace, "classify");
      verdict = JudgeSession(session);
    }
    PolicyAction action;
    {
      SpanScope span(trace, "policy");
      action = policy_.Evaluate(session, verdict, now);
    }
    if (action == PolicyAction::kBlock) {
      m_.blocked->Inc();
      RequestEvent ev = BuildEvent(request, url_hash, session);
      ev.status_class = 4;
      session.RecordRequest(now, ev);
      NoteSessionMutation(session);
      // The blocked timeline ends at the policy decision; the bookkeeping
      // above is not worth a span.
      if (trace != nullptr) {
        trace->SetOutcome(true, VerdictName(Verdict::kRobot), "policy");
      }
      Result result;
      result.response = Blocked();
      result.blocked = true;
      return result;
    }
  }

  RequestEvent ev;
  {
    SpanScope span(trace, "parse");
    ev = BuildEvent(request, url_hash, session);
  }
  const int index = session.request_count() + 1;  // This request's 1-based index.

  if (ev.kind == ResourceKind::kRobotsTxt) {
    SessionState::MarkSignal(session.signals().robots_txt_at, index);
  }

  // Instrumented namespace?
  if (request.url.path().compare(0, config_.instr_prefix.size(), config_.instr_prefix) == 0) {
    Result result;
    {
      SpanScope span(trace, "probe_intercept");
      result.response = HandleInstrumented(request, session, index, trace);
    }
    ev.status_class = static_cast<uint8_t>(StatusValue(result.response.status) / 100);
    {
      SpanScope span(trace, "session_update");
      session.RecordRequest(now, ev);
      session.visited_urls().InsertHash(url_hash);
      NoteSessionMutation(session);
    }
    m_.instr_bytes->Inc(result.response.WireSize());
    return result;
  }

  // Forward to origin through the resilience pipeline.
  FetchOutcome fetch;
  {
    SpanScope span(trace, "origin_fetch");
    fetch = resilient_.Fetch(request);
    if (trace != nullptr) {
      span.Annotate("attempts=" + std::to_string(fetch.attempts) +
                    " breaker=" + std::string(BreakerStateName(fetch.breaker)));
    }
  }
  Response response;
  if (fetch.response.has_value()) {
    m_.origin_bytes->Inc(fetch.response->WireSize());
    response = std::move(*fetch.response);
  } else if (fetch.rejected) {
    response = FailClosed();
  } else {
    response = SynthesizeOriginErrorResponse(
        fetch.error.value_or(OriginErrorKind::kConnectFail));
  }

  const DegradationLevel level = DecideDegradation(fetch, response);
  m_.degraded[static_cast<int>(level)]->Inc();

  // Instrument HTML success responses, as far down the ladder as the fetch
  // outcome allows.
  const bool beacon_only = level == DegradationLevel::kBeaconOnly;
  const bool instrumentable =
      level == DegradationLevel::kFull
          ? (config_.enable_human_activity || config_.enable_css_probe ||
             config_.enable_hidden_link)
          : beacon_only && config_.enable_human_activity;
  if (instrumentable && response.IsHtml() && response.status == StatusCode::kOk &&
      request.method == Method::kGet) {
    response = InstrumentPage(request, session, std::move(response), trace, beacon_only);
  } else if (level != DegradationLevel::kFailClosed && response.IsHtml() &&
             !response.body.empty()) {
    // Track links/embeds of uninstrumented HTML too (HEAD bodies excluded),
    // read off the page in a scan of its own.
    const ScopedDurationUs timer(m_.served_refs_us);
    RegisterServedContent(request.url, response.body, CollectServedRefs(response.body), session);
  }

  ev.status_class = static_cast<uint8_t>(StatusValue(response.status) / 100);
  {
    SpanScope span(trace, "session_update");
    session.RecordRequest(now, ev);
    session.visited_urls().InsertHash(url_hash);
    NoteSessionMutation(session);
  }

  Result result;
  result.response = std::move(response);
  result.degraded = level;
  return result;
}

DegradationLevel ProxyServer::DecideDegradation(const FetchOutcome& fetch,
                                                const Response& response) const {
  if (fetch.rejected) {
    return DegradationLevel::kFailClosed;
  }
  if (fetch.error.has_value()) {
    // Hard failure (synthesized error page) or untrustworthy body: serve
    // whatever we have unmodified.
    return DegradationLevel::kPassThrough;
  }
  if (fetch.breaker != CircuitBreaker::State::kClosed && !fetch.probe) {
    // Degraded single attempt while the origin is sick: don't spend rewrite
    // work or mint keys against a host we're not trusting yet.
    return DegradationLevel::kPassThrough;
  }
  if (fetch.latency > kSlowOrigin || response.body.size() > kMaxRewriteBytes) {
    return DegradationLevel::kBeaconOnly;
  }
  return DegradationLevel::kFull;
}

void ProxyServer::NoteSessionMutation(SessionState& session) {
  if (state_store_ != nullptr) {
    state_store_->OnSessionUpdated(session);
  }
}

void ProxyServer::SimulateCrashRestart(TimeMs now) {
  // In-memory state vanishes the way a kill -9 loses it: no close
  // callbacks, no records emitted, counters untouched.
  sessions_.DropAll();
  key_table_.Clear();
  if (state_store_ != nullptr) {
    state_store_->OnCrash();
    state_store_->Recover(now);
  }
  m_.restarts->Inc();
}

void ProxyServer::MaybeMaintainTables(TimeMs now) {
  const uint64_t n = handled_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % kMaintenanceStride != 0) {
    return;
  }
  if (config_.concurrent) {
    // A sweep driven by this worker's clock could free session state another
    // worker — on its own, possibly lagging, timeline — still references.
    // Concurrent deployments rely on lazy per-entry expiry (KeyTable) and
    // the capacity bounds instead.
    return;
  }
  // One shard per run keeps the on-request reap cost O(shard), amortized
  // across the stride.
  const size_t expired = keys().ExpireOldIncremental(now);
  const size_t closed = sessions_.CloseIdleIncremental(now);
  m_.maintenance_runs->Inc();
  m_.maintenance_keys->Inc(expired);
  m_.maintenance_sessions->Inc(closed);
}

Response ProxyServer::HandleInstrumented(const Request& request, SessionState& session,
                                         int request_index, TraceRecorder::Trace* trace) {
  ParsedProbe probe = ParseProbePath(request.url.path(), config_.instr_prefix);
  // The three CAPTCHA kinds are adjacent; their paths are not found when it is off.
  if (!config_.enable_captcha && probe.kind >= ProbeKind::kCaptchaPage &&
      probe.kind <= ProbeKind::kCaptchaSubmit) {
    probe.kind = ProbeKind::kNone;
  }
  SessionSignals& sig = session.signals();
  switch (probe.kind) {
    case ProbeKind::kBeaconScript: {
      SpanScope span(trace, "probe:beacon_script");
      if (!minter_.Validate(probe.name)) {
        return MakeResponse(StatusCode::kNotFound, ResourceKind::kHtml, "");
      }
      SessionState::MarkSignal(sig.js_download_at, request_index);
      m_.probe_js_file->Inc();
      GeneratedBeacon beacon;
      {
        const ScopedDurationUs timer(m_.script_build_us);
        beacon = BuildBeaconForToken(probe.name, nullptr);
      }
      Response response = MakeResponse(StatusCode::kOk, ResourceKind::kJavaScript,
                                        std::move(beacon.script_source));
      response.headers.Set("Cache-Control", "no-cache, no-store");
      return response;
    }

    case ProbeKind::kCssProbe: {
      SpanScope span(trace, "probe:css");
      if (!minter_.Validate(probe.name)) {
        return MakeResponse(StatusCode::kNotFound, ResourceKind::kHtml, "");
      }
      SessionState::MarkSignal(sig.css_probe_at, request_index);
      m_.probe_css->Inc();
      return EmptyCss();
    }

    case ProbeKind::kAudioProbe: {
      SpanScope span(trace, "probe:audio");
      if (!minter_.Validate(probe.name)) {
        return MakeResponse(StatusCode::kNotFound, ResourceKind::kHtml, "");
      }
      SessionState::MarkSignal(sig.audio_probe_at, request_index);
      m_.probe_audio->Inc();
      Response response =
          MakeResponse(StatusCode::kOk, ResourceKind::kAudio, std::string(128, '\0'));
      response.headers.Set("Cache-Control", "no-cache, no-store");
      return response;
    }

    case ProbeKind::kBeaconImage: {
      SpanScope span(trace, "probe:beacon_key");
      const std::string key(probe.name);
      if (keys().MatchAndConsume(request.client_ip, key, request.time)) {
        // §4.1 extension: an attested event proves a physical input device;
        // when attestation is required, a bare key match proves only that
        // the script ran (synthetic-event suspicion).
        bool attested = false;
        if (attestation_ != nullptr) {
          if (const auto header = request.headers.Get(AttestationAuthority::kHeaderName);
              header.has_value()) {
            if (const auto parsed = AttestationAuthority::ParseHeader(*header);
                parsed.has_value()) {
              attested = attestation_->Verify(parsed->device_id, key, parsed->mac);
            }
          }
        }
        if (attested) {
          SessionState::MarkSignal(sig.attested_mouse_at, request_index);
        }
        if (config_.require_attestation && !attested) {
          SessionState::MarkSignal(sig.unattested_event_at, request_index);
        } else {
          SessionState::MarkSignal(sig.mouse_event_at, request_index);
        }
        m_.beacon_ok->Inc();
        span.Annotate("key=match");
      } else {
        SessionState::MarkSignal(sig.wrong_key_at, request_index);
        m_.beacon_wrong->Inc();
        span.Annotate("key=wrong");
      }
      // "The server can respond with any JPEG image because the picture is
      // not used."
      return TinyJpeg();
    }

    case ProbeKind::kUaEcho: {
      SpanScope span(trace, "probe:ua_echo");
      if (minter_.Validate(probe.name)) {
        SessionState::MarkSignal(sig.js_executed_at, request_index);
        m_.ua_echo->Inc();
        sig.ua_echo_agent = probe.agent;
        const std::string header_agent = SanitizeAgent(request.UserAgent());
        if (!sig.ua_echo_agent.empty() && sig.ua_echo_agent != header_agent) {
          SessionState::MarkSignal(sig.ua_mismatch_at, request_index);
        }
      }
      return EmptyCss();
    }

    case ProbeKind::kHiddenLink: {
      SpanScope span(trace, "probe:hidden_link");
      if (minter_.Validate(probe.name)) {
        SessionState::MarkSignal(sig.hidden_link_at, request_index);
        m_.hidden_link->Inc();
      }
      return MakeResponse(StatusCode::kOk, ResourceKind::kHtml, "<html><body></body></html>");
    }

    case ProbeKind::kTransparentImage:
      return TinyJpeg();

    case ProbeKind::kCaptchaPage: {
      const std::string token =
          captcha_.IssueChallenge(MintEntropy(session, request.time, probe.kind));
      Response response = MakeHtmlResponse(
          captcha_.RenderChallenge(token, "http://" + config_.host + config_.instr_prefix));
      response.headers.Set("Cache-Control", "no-cache, no-store");
      return response;
    }

    case ProbeKind::kCaptchaImage:
      return TinyJpeg();

    case ProbeKind::kCaptchaSubmit: {
      SpanScope span(trace, "probe:captcha");
      std::string answer;
      constexpr std::string_view kAns = "ans=";
      const std::string& query = request.url.query();
      if (const size_t at = query.find(kAns); at != std::string::npos) {
        answer = query.substr(at + kAns.size());
      }
      if (captcha_.CheckAnswer(probe.name, answer)) {
        SessionState::MarkSignal(sig.captcha_passed_at, request_index);
        m_.captcha_pass->Inc();
        return MakeHtmlResponse("<html><body>Verified.</body></html>");
      }
      SessionState::MarkSignal(sig.captcha_failed_at, request_index);
      m_.captcha_fail->Inc();
      return MakeResponse(StatusCode::kForbidden, ResourceKind::kHtml,
                          "<html><body>Wrong answer.</body></html>");
    }

    case ProbeKind::kNone:
      break;
  }
  return MakeResponse(StatusCode::kNotFound, ResourceKind::kHtml,
                      "<html><body>Not found.</body></html>");
}

Response ProxyServer::InstrumentPage(const Request& request, SessionState& session,
                                     Response response, TraceRecorder::Trace* trace,
                                     bool beacon_only) {
  SpanScope span(trace, "rewrite_inject");
  InjectionPlan plan;
  const std::string base = "http://" + config_.host + config_.instr_prefix;

  if (config_.enable_human_activity) {
    const ScopedDurationUs timer(m_.page_key_us);
    const std::string script_token =
        minter_.MintFor(MintEntropy(session, request.time, ProbeKind::kBeaconScript));
    // The script itself is built only when the client fetches it.
    PageBeacon beacon = DerivePageBeacon(script_token);
    keys().Record(request.client_ip, request.url.path(), beacon.real_key, request.time);
    plan.mouse_handler_code = std::move(beacon.handler_code);
    plan.beacon_script_url = ProbeUrl(base, ProbeKind::kBeaconScript, script_token);
    plan.hook_links = config_.hook_links;
  }
  // Beacon-only is the ladder's middle rung: the cheap, high-signal probe
  // stays, the secondary rewrites are shed.
  if (!beacon_only) {
    // A probe URL carrying a token minted for this request under its kind.
    auto minted_url = [&](ProbeKind kind) {
      return ProbeUrl(base, kind, minter_.MintFor(MintEntropy(session, request.time, kind)));
    };
    if (config_.enable_ua_echo) {
      const std::string ua_token =
          minter_.MintFor(MintEntropy(session, request.time, ProbeKind::kUaEcho));
      plan.ua_echo_script =
          GenerateUaEchoScript(config_.host, config_.instr_prefix, ua_token);
    }
    if (config_.enable_css_probe) {
      plan.css_probe_url = minted_url(ProbeKind::kCssProbe);
    }
    if (config_.enable_audio_probe) {
      plan.audio_probe_url = minted_url(ProbeKind::kAudioProbe);
    }
    if (config_.enable_hidden_link) {
      plan.hidden_link_url = minted_url(ProbeKind::kHiddenLink);
      plan.transparent_image_url = ProbeUrl(base, ProbeKind::kTransparentImage);
    }
  }

  InjectionResult injected;
  {
    const ScopedDurationUs timer(m_.rewrite_us);
    injected = InstrumentHtml(response.body, plan);
  }
  if (trace != nullptr) {
    span.Annotate("added_bytes=" + std::to_string(injected.added_bytes));
  }
  response.body = std::move(injected.html);
  response.headers.Set("Content-Length", std::to_string(response.body.size()));
  // "To prevent caching the JavaScript file at the client browser, the
  // server marks it uncacheable" — the page itself must be uncacheable too,
  // since each serving carries fresh keys.
  response.headers.Set("Cache-Control", "no-cache, no-store");

  m_.instr_bytes->Inc(injected.added_bytes);
  m_.pages_instrumented->Inc();
  session.NoteInstrumentedPage();

  {
    // The rewrite found the page's refs; nothing reads the page again.
    const ScopedDurationUs timer(m_.served_refs_us);
    RegisterServedContent(request.url, response.body, injected.refs, session);
  }
  return response;
}

void ProxyServer::RegisterServedContent(const Url& page_url, std::string_view html,
                                        const ServedRefs& refs, SessionState& session) {
  // All links, then all embeds: each set keeps insertion order and drops
  // inserts past its capacity. Each ref is hashed as it resolves, with no
  // Url or string built.
  for (const HtmlSpan& href : refs.links) {
    session.served_links().InsertHash(page_url.ResolveHash(href.In(html)));
  }
  for (const HtmlSpan& url : refs.embeds) {
    session.served_embeds().InsertHash(page_url.ResolveHash(url.In(html)));
  }
}

}  // namespace robodet
