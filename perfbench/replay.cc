// In-process traced replay. The workload's visitors run against a
// ProxyServer configured as robodet_serve configures it, through the same
// call chain a daemon worker runs per request:
//
//   FrameRequest -> ParseRequestText -> ProxyServer::Handle (origin fetch
//   as a child span) -> SessionTable::Touch + ClassifyOnline ->
//   SerializeResponse
//
// Spans are recorded from this file around those calls, kept in memory and
// written out at the end. The stage calls inside Handle (beacon build,
// minting, rewrite, link registration, key record/match, session touch,
// journal append, recovery) are then timed on the pages and tokens the
// replay produced.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/core/combined_classifier.h"
#include "src/html/document.h"
#include "src/html/injector.h"
#include "src/http/wire.h"
#include "src/js/generator.h"
#include "src/net/framer.h"
#include "src/proxy/key_table.h"
#include "src/proxy/persistence/state_store.h"
#include "src/proxy/proxy_server.h"
#include "src/proxy/session_table.h"
#include "src/proxy/token_minter.h"
#include "src/site/site_model.h"
#include "src/util/clock.h"
#include "src/util/hash.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

using namespace robodet;  // NOLINT: the replay touches most of the library.
namespace fs = std::filesystem;

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

struct Span {
  uint32_t request;
  int32_t parent;
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
};

// Spans of one pass. When off, only the per-request chain time is kept.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int Begin(const char* name, int parent, uint32_t request) {
    if (!on_) {
      return -1;
    }
    spans_.push_back(Span{request, parent, name, NowNs(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) {
    if (span >= 0) {
      spans_[static_cast<size_t>(span)].end_ns = NowNs();
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Mean duration (µs) of the spans named `name`; with `self`, minus the
  // time their children cover.
  double MeanUs(std::string_view name, bool self = false,
                const std::vector<bool>* only = nullptr) const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    if (self) {
      for (const Span& s : spans_) {
        if (s.parent >= 0) {
          child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
        }
      }
    }
    std::vector<double> us;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.name != name || (only != nullptr && !(*only)[s.request])) {
        continue;
      }
      us.push_back((static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) / 1000.0);
    }
    return Mean(us);
  }

  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"request\":%u,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   i, s.request, s.parent, s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    std::fclose(f);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// What the traced pass leaves behind for the stage timings.
struct Artifacts {
  struct Page {
    IpAddress ip;
    std::string path;
    std::string served;  // Instrumented body as sent.
  };
  std::vector<Page> pages;
  struct BeaconHit {
    IpAddress ip;
    std::string key;
  };
  std::vector<BeaconHit> beacon_hits;
  std::vector<SessionKey> session_keys;  // One per request, in order.
  uint64_t requests = 0;
  uint64_t script_fetches = 0;
};

// One ProxyServer set up as robodet_serve sets it up (tools/robodet_serve.cc:
// site seed 31, proxy rng seed 37, concurrent at --workers=2), behind the
// daemon's per-request chain.
class Pass {
 public:
  Pass(const ReplayOptions& options, bool traced, const std::string& state_dir)
      : options_(options), log_(traced) {
    SiteConfig site_config;
    site_config.num_pages = kSitePages;
    Rng site_rng(31);
    SiteModel site = SiteModel::Generate(site_config, site_rng);
    for (size_t i = 0; i < site_config.num_pages; ++i) {
      pages_.push_back(site.RenderPage(i));
    }
    ProxyConfig config;
    config.host = site.host();
    config.concurrent = true;
    config.persistence.state_dir = state_dir;
    proxy_ = std::make_unique<ProxyServer>(
        config, &clock_,
        FallibleOriginHandler([this](const Request& r) {
          const int span = log_.Begin("origin.fetch", handle_span_, request_id_);
          if (options_.origin_rtt_us > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(options_.origin_rtt_us));
          }
          OriginResult result =
              OriginResult::Ok(MakeHtmlResponse(pages_[Fnv1a(r.url.path()) % pages_.size()]));
          log_.End(span);
          return result;
        }),
        /*rng_seed=*/37);
  }

  // The origin callback holds `this`.
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  void Run(std::vector<std::unique_ptr<Visitor>> visitors, Artifacts* artifacts,
           std::vector<std::string>* errors) {
    for (auto& visitor : visitors) {
      for (std::vector<Fetch> batch = visitor->NextBatch(); !batch.empty();
           batch = visitor->NextBatch()) {
        for (const Fetch& fetch : batch) {
          Serve(*visitor, fetch, artifacts, errors);
        }
      }
    }
  }

  ProxyServer& proxy() { return *proxy_; }
  const SpanLog& log() const { return log_; }
  const std::vector<double>& chain_us() const { return chain_us_; }
  const std::vector<bool>& is_page() const { return is_page_; }
  const std::string& origin_page(const std::string& path) const {
    return pages_[Fnv1a(path) % pages_.size()];
  }
  TimeMs now() const { return clock_.Now(); }

 private:
  void Serve(Visitor& visitor, const Fetch& fetch, Artifacts* artifacts,
             std::vector<std::string>* errors) {
    const std::string text = RenderRequest(fetch);
    request_id_ = static_cast<uint32_t>(chain_us_.size());
    const uint64_t t0 = NowNs();
    const int root = log_.Begin("request", -1, request_id_);

    int span = log_.Begin("net.frame", root, request_id_);
    const FramedRequest framed = FrameRequest(text);
    log_.End(span);

    span = log_.Begin("http.parse", root, request_id_);
    auto parsed = ParseRequestText(std::string_view(text).substr(0, framed.consumed));
    log_.End(span);
    if (framed.status != FrameStatus::kComplete || !parsed.value.has_value()) {
      errors->push_back("replay could not parse its own request for " + fetch.target);
      return;
    }
    Request request = std::move(*parsed.value);
    request.time = clock_.Now();
    request.client_ip = IpAddress(0x7f000001);
    // robodet_serve --trust-xff.
    if (const auto xff = request.headers.Get("X-Forwarded-For"); xff.has_value()) {
      if (const auto ip = IpAddress::Parse(TrimWhitespace(Split(*xff, ',')[0])); ip) {
        request.client_ip = *ip;
      }
    }
    const SessionKey key{request.client_ip, std::string(request.UserAgent())};

    handle_span_ = log_.Begin("proxy.handle", root, request_id_);
    ProxyServer::Result result = proxy_->Handle(request);
    log_.End(handle_span_);
    handle_span_ = -1;

    // The daemon's robot flag for connection shedding.
    span = log_.Begin("sessions.touch", root, request_id_);
    const SessionState* session = proxy_->sessions().Touch(key, clock_.Now());
    log_.End(span);
    span = log_.Begin("core.classify", root, request_id_);
    const Verdict verdict = classifier_.ClassifyOnline(session->observation()).verdict;
    log_.End(span);

    span = log_.Begin("http.serialize", root, request_id_);
    result.response.headers.Set("Connection", fetch.last ? "close" : "keep-alive");
    const std::string wire = SerializeResponse(result.response);
    log_.End(span);
    log_.End(root);
    chain_us_.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    is_page_.push_back(fetch.signal == Signal::kPage);
    (void)verdict;
    (void)wire;

    const int status = StatusValue(result.response.status);
    if (status != fetch.expect_status) {
      errors->push_back("replay: status " + std::to_string(status) + " for " + fetch.target);
    }
    if (artifacts != nullptr) {
      ++artifacts->requests;
      artifacts->session_keys.push_back(key);
      if (fetch.signal == Signal::kPage && status == 200) {
        artifacts->pages.push_back({request.client_ip, request.url.path(), result.response.body});
      } else if (fetch.signal == Signal::kJsFile) {
        ++artifacts->script_fetches;
      } else if (fetch.signal == Signal::kBeaconOk || fetch.signal == Signal::kBeaconWrong) {
        artifacts->beacon_hits.push_back(
            {request.client_ip, ExtractBeaconKey(request.url.path(), std::string(kInstrPrefix))});
      }
    }
    visitor.OnResponse(fetch, status, result.response.body);
  }

  const ReplayOptions& options_;
  SpanLog log_;
  WallClock clock_;
  std::vector<std::string> pages_;
  std::unique_ptr<ProxyServer> proxy_;
  CombinedClassifier classifier_;
  uint32_t request_id_ = 0;
  int handle_span_ = -1;
  std::vector<double> chain_us_;
  std::vector<bool> is_page_;
};

// The script token a served page's beacon <script src> carries.
std::string ScriptToken(const std::string& html) {
  const std::string stem = std::string(kInstrPrefix) + "js_";
  const size_t at = html.find(stem);
  if (at == std::string::npos) {
    return "";
  }
  const size_t begin = at + stem.size();
  const size_t end = html.find(".js", begin);
  return end == std::string::npos ? "" : html.substr(begin, end - begin);
}

std::string CopyState(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  if (!from.empty()) {
    fs::copy(from, to, fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  }
  return to;
}

// Browse visitors replayed beside a workload that serves no pages.
constexpr uint64_t kSideVisitors = 40;

// Accumulates per-call times over repeated stage loops.
struct Timer {
  std::vector<double> us;
  template <typename F>
  void Time(F&& f) {
    const uint64_t t0 = NowNs();
    f();
    us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  }
};

}  // namespace

ReplayReport RunReplay(const ReplayOptions& options) {
  ReplayReport report;
  auto put = [&report](const char* name, double value) {
    report.values.emplace_back(name, value);
  };
  const bool durable = !options.state_dir.empty();
  const std::string prefix(kInstrPrefix);
  auto visitors = [&options](Mix mix, uint64_t count, int space) {
    return MakeVisitors(mix, options.seed, count, space);
  };

  // Untraced, then traced: the difference is the tracing overhead.
  Pass untraced(options, false,
                durable ? CopyState(options.state_dir, options.scratch_dir + "/untraced") : "");
  untraced.Run(visitors(options.mix, options.visitors, options.address_space), nullptr,
               &report.errors);
  Pass traced(options, true,
              durable ? CopyState(options.state_dir, options.scratch_dir + "/traced") : "");
  Artifacts art;
  traced.Run(visitors(options.mix, options.visitors, options.address_space), &art,
             &report.errors);
  ProxyServer& proxy = traced.proxy();
  const ProxyConfig& config = proxy.config();

  // A workload that serves no pages (the flood) still gets its page-path
  // calls timed, on a small browse replay beside it: those figures are the
  // per-call cost, and the count metrics show the workload never pays it.
  Pass side(options, true, "");
  Artifacts side_art;
  const bool own_pages = !art.pages.empty();
  if (!own_pages) {
    side.Run(visitors(Mix::kBrowse, kSideVisitors, options.address_space + 1), &side_art,
             &report.errors);
  }
  const Pass& paged = own_pages ? traced : side;
  const Artifacts& pages = own_pages ? art : side_art;

  // A workload run without a state directory still gets its persistence
  // calls timed, against a scratch store journaling the replay's sessions.
  std::unique_ptr<KeyTable> scratch_keys;
  std::unique_ptr<SessionTable> scratch_sessions;
  std::unique_ptr<StateStore> scratch_store;
  StateStore* store = proxy.state_store();
  std::string recover_from = options.state_dir;
  if (store == nullptr) {
    PersistenceConfig pconfig = config.persistence;
    pconfig.state_dir = CopyState("", options.scratch_dir + "/journal");
    scratch_keys = std::make_unique<KeyTable>(config.keys);
    scratch_sessions = std::make_unique<SessionTable>(config.session);
    scratch_store =
        std::make_unique<StateStore>(pconfig, scratch_keys.get(), scratch_sessions.get());
    scratch_store->Recover(traced.now());
    store = scratch_store.get();
    recover_from = pconfig.state_dir;
  }

  // Stage timings on what the replay served, repeated within the budget.
  std::vector<std::string> tokens;
  for (const Artifacts::Page& page : pages.pages) {
    tokens.push_back(ScriptToken(page.served));
  }
  Timer beacon, mint, rewrite, links, record, match, touch, update, recover;
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(options.seconds * 1e9);
  Rng mint_rng(options.seed);
  const TokenMinter minter(config.secret, &mint_rng);
  // InstrumentPage mints one token per probe: script, UA echo, CSS, link.
  constexpr int kMintsPerPage = 4;
  for (uint64_t round = 0; round == 0 || NowNs() - start < budget; ++round) {
    KeyTable keys(config.keys);
    for (size_t i = 0; i < pages.pages.size(); ++i) {
      const Artifacts::Page& page = pages.pages[i];
      std::string real_key;
      GeneratedBeacon built;
      beacon.Time([&] { built = proxy.BuildBeaconForToken(tokens[i], &real_key); });
      std::string minted[kMintsPerPage];
      for (uint64_t tag = 0; tag < kMintsPerPage; ++tag) {
        mint.Time([&] { minted[tag] = minter.MintFor(HashCombine(HashCombine(i, round), tag)); });
      }
      InjectionPlan plan;
      plan.beacon_script_url = "http://" + config.host + prefix + "js_" + minted[0] + ".js";
      plan.mouse_handler_code = built.handler_code;
      plan.ua_echo_script = GenerateUaEchoScript(config.host, prefix, minted[1]);
      plan.css_probe_url = "http://" + config.host + prefix + "cp_" + minted[2] + ".css";
      plan.hidden_link_url = "http://" + config.host + prefix + "hl_" + minted[3] + ".html";
      plan.transparent_image_url = "http://" + config.host + prefix + "ti.jpg";
      const std::string& origin = paged.origin_page(page.path);
      rewrite.Time([&] { (void)InstrumentHtml(origin, plan); });
      // RegisterServedContent's re-parse of the served page.
      links.Time([&] {
        const Url base = Url::Make(config.host, page.path);
        HtmlDocument doc(page.served);
        size_t n = 0;
        for (const LinkRef& link : doc.Links()) {
          n += base.Resolve(link.href).ToString().size();
        }
        for (const EmbedRef& embed : doc.EmbeddedObjects()) {
          n += base.Resolve(embed.url).ToString().size();
        }
        return n;
      });
      record.Time([&] { keys.Record(page.ip, page.path, real_key, traced.now()); });
    }
    for (const Artifacts::BeaconHit& hit : art.beacon_hits) {
      match.Time([&] { (void)keys.MatchAndConsume(hit.ip, hit.key, traced.now()); });
    }
    SessionTable sessions(config.session);
    for (const SessionKey& key : art.session_keys) {
      touch.Time([&] { (void)sessions.Touch(key, traced.now()); });
    }
    for (const SessionKey& key : art.session_keys) {
      const SessionState* session = proxy.sessions().Touch(key, traced.now());
      update.Time([&] { store->OnSessionUpdated(*session); });
    }
    if (round < 5) {
      const std::string dir = CopyState(recover_from, options.scratch_dir + "/recover");
      KeyTable rkeys(config.keys);
      SessionTable rsessions(config.session);
      PersistenceConfig pconfig = config.persistence;
      pconfig.state_dir = dir;
      StateStore rstore(pconfig, &rkeys, &rsessions);
      rkeys.set_observer(&rstore);
      recover.Time([&] { (void)rstore.Recover(traced.now()); });
    }
  }

  const double served_pages = static_cast<double>(art.pages.size());
  const double beacon_us = Mean(beacon.us);
  const double rewrite_us = Mean(rewrite.us);
  const double links_us = Mean(links.us);
  const double mint_us = Mean(mint.us);
  const double record_us = Mean(record.us);
  const double handle_page_us =
      paged.log().MeanUs("proxy.handle", /*self=*/true, &paged.is_page());
  std::vector<bool> is_probe(traced.is_page().size());
  for (size_t i = 0; i < is_probe.size(); ++i) {
    is_probe[i] = !traced.is_page()[i];
  }
  const SpanLog& log = traced.log();
  put("js.beacon_us", beacon_us);
  // One build per instrumented page plus one per beacon-script fetch.
  put("js.beacons_per_page",
      served_pages > 0 ? (served_pages + static_cast<double>(art.script_fetches)) / served_pages
                       : 0.0);
  put("html.rewrite_us", rewrite_us);
  put("html.links_us", links_us);
  put("minter.mint_us", mint_us);
  put("keys.record_us", record_us);
  put("keys.match_us", Mean(match.us));
  put("proxy.handle_page_us", handle_page_us);
  put("proxy.handle_probe_us", log.MeanUs("proxy.handle", false, &is_probe));
  put("proxy.unattributed_us", handle_page_us - (beacon_us + rewrite_us + links_us +
                                                 kMintsPerPage * mint_us + record_us));
  put("sessions.touch_us", Mean(touch.us));
  put("core.classify_us", log.MeanUs("core.classify"));
  put("http.parse_us", log.MeanUs("http.parse"));
  put("http.serialize_us", log.MeanUs("http.serialize"));
  put("net.frame_us", log.MeanUs("net.frame"));
  put("persistence.update_us", Mean(update.us));
  put("persistence.recover_ms", Median(recover.us) / 1000.0);
  put("origin.wait_us", paged.log().MeanUs("origin.fetch"));
  double untraced_sum = 0.0;
  double traced_sum = 0.0;
  for (double us : untraced.chain_us()) {
    untraced_sum += us;
  }
  for (double us : traced.chain_us()) {
    traced_sum += us;
  }
  put("trace.overhead_frac", untraced_sum > 0 ? traced_sum / untraced_sum - 1.0 : 0.0);
  put("replay.chain_p50_us", Median(untraced.chain_us()));
  put("replay.requests", static_cast<double>(art.requests));
  put("replay.pages", served_pages);
  if (!options.spans_out.empty()) {
    log.Write(options.spans_out);
  }
  return report;
}

}  // namespace perfbench
