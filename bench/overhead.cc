// §3.2 overhead microbenchmarks. The paper measured: a ~1KB obfuscated
// beacon script generated in ~144 µs on a 2 GHz Pentium 4 ("little
// additional delay"), and fake JS + CSS costing 0.3% of CoDeeN's
// bandwidth. The table benches report the bandwidth fraction; this binary
// measures the compute side: script generation, obfuscation, HTML
// instrumentation, token and key-table operations, feature extraction,
// model prediction, the full per-request proxy path, and the persistence
// layer's checksum and restart recovery.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "src/robodet.h"
#include "src/util/checksum.h"

namespace robodet {
namespace {

BeaconSpec SpecWith(size_t decoys, int level, size_t pad) {
  BeaconSpec spec;
  spec.host = "www.example.com";
  spec.path_prefix = "/__rd/";
  Rng rng(decoys * 131 + static_cast<uint64_t>(level));
  spec.real_key = rng.HexKey128();
  for (size_t i = 0; i < decoys; ++i) {
    spec.decoy_keys.push_back(rng.HexKey128());
  }
  spec.obfuscation_level = level;
  spec.pad_to_bytes = pad;
  return spec;
}

void BM_GenerateBeaconScript(benchmark::State& state) {
  const BeaconSpec spec = SpecWith(static_cast<size_t>(state.range(0)),
                                   static_cast<int>(state.range(1)),
                                   state.range(1) >= 3 ? 1024 : 0);
  Rng rng(7);
  size_t bytes = 0;
  for (auto _ : state) {
    GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
    bytes = beacon.script_source.size();
    benchmark::DoNotOptimize(beacon.script_source.data());
  }
  state.counters["script_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_GenerateBeaconScript)
    ->ArgsProduct({{0, 4, 16}, {0, 2, 4}})
    ->ArgNames({"decoys", "obf"});

void BM_ObfuscateJs(benchmark::State& state) {
  Rng gen_rng(3);
  const BeaconSpec spec = SpecWith(4, 0, 0);
  const GeneratedBeacon plain = GenerateBeaconScript(spec, gen_rng);
  ObfuscationOptions options;
  options.junk_statements = 8;
  options.pad_to_bytes = static_cast<size_t>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    ObfuscationResult result = ObfuscateJs(plain.script_source, options, rng);
    benchmark::DoNotOptimize(result.source.data());
  }
}
BENCHMARK(BM_ObfuscateJs)->Arg(0)->Arg(1024)->Arg(4096)->ArgName("pad");

void BM_InstrumentHtml(benchmark::State& state) {
  SiteConfig config;
  config.num_pages = 4;
  Rng rng(5);
  SiteModel site = SiteModel::Generate(config, rng);
  std::string html = site.RenderPage(0);
  // Scale body size.
  while (html.size() < static_cast<size_t>(state.range(0))) {
    html += "<p>filler paragraph for scaling the document body length</p>\n";
  }
  InjectionPlan plan;
  plan.beacon_script_url = "http://e.com/__rd/js_t.js";
  plan.mouse_handler_code = "return d();";
  plan.ua_echo_script = "var a = navigator.userAgent;";
  plan.css_probe_url = "http://e.com/__rd/cp_t.css";
  plan.hidden_link_url = "http://e.com/__rd/hl_t.html";
  plan.transparent_image_url = "http://e.com/__rd/ti.jpg";
  for (auto _ : state) {
    InjectionResult result = InstrumentHtml(html, plan);
    benchmark::DoNotOptimize(result.html.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * html.size()));
}
BENCHMARK(BM_InstrumentHtml)->Arg(2 << 10)->Arg(16 << 10)->Arg(64 << 10)->ArgName("bytes");

void BM_JsInterpreterBeaconRun(benchmark::State& state) {
  Rng gen_rng(9);
  const BeaconSpec spec = SpecWith(4, 2, 0);
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, gen_rng);
  for (auto _ : state) {
    JsInterpreter interp(JsInterpreter::Config{"bench", 200000});
    interp.Run(beacon.script_source);
    interp.RunHandler(beacon.handler_code);
    benchmark::DoNotOptimize(interp.fetched_urls().size());
  }
}
BENCHMARK(BM_JsInterpreterBeaconRun);

void BM_TokenMintValidate(benchmark::State& state) {
  Rng rng(13);
  TokenMinter minter(0xfeed, &rng);
  for (auto _ : state) {
    const std::string token = minter.Mint();
    benchmark::DoNotOptimize(minter.Validate(token));
  }
}
BENCHMARK(BM_TokenMintValidate);

void BM_KeyTableRecordMatch(benchmark::State& state) {
  KeyTable table(KeyTable::Config{});
  Rng rng(17);
  uint32_t ip = 0;
  for (auto _ : state) {
    ++ip;
    const std::string key = rng.HexKey128();
    table.Record(IpAddress(ip & 0xffff), "/p/1.html", key, 0);
    benchmark::DoNotOptimize(table.MatchAndConsume(IpAddress(ip & 0xffff), key, 1));
  }
}
BENCHMARK(BM_KeyTableRecordMatch);

void BM_SessionTableTouch(benchmark::State& state) {
  SessionTable table({kHour, 1 << 20});
  uint32_t ip = 0;
  for (auto _ : state) {
    ++ip;
    benchmark::DoNotOptimize(
        table.Touch(SessionKey{IpAddress(ip % 10000), "Mozilla/5.0"}, ip));
  }
}
BENCHMARK(BM_SessionTableTouch);

// A session's URL sets at the sizes that matter: a flood probe's one entry,
// the scan limit, a browsing session's link set and a crawler's.
std::vector<uint64_t> RandomHashes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> hashes(n);
  for (uint64_t& h : hashes) {
    h = rng.NextU64();
  }
  return hashes;
}

void BM_UrlHashSetInsert(benchmark::State& state) {
  const std::vector<uint64_t> hashes = RandomHashes(static_cast<size_t>(state.range(0)), 29);
  for (auto _ : state) {
    UrlHashSet set;
    for (uint64_t h : hashes) {
      set.InsertHash(h);
    }
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UrlHashSetInsert)->Arg(1)->Arg(16)->Arg(64)->Arg(1024)->ArgName("entries");

// Half the lookups hit, half miss: the link and embed sets mostly miss, the
// visited set mostly hits.
void BM_UrlHashSetContains(benchmark::State& state) {
  const std::vector<uint64_t> hashes = RandomHashes(static_cast<size_t>(state.range(0)), 31);
  UrlHashSet set;
  for (uint64_t h : hashes) {
    set.InsertHash(h);
  }
  std::vector<uint64_t> probes = RandomHashes(1024, 37);
  for (size_t i = 0; i < probes.size(); i += 2) {
    probes[i] = hashes[i % hashes.size()];
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.ContainsHash(probes[i++ % probes.size()]));
  }
}
BENCHMARK(BM_UrlHashSetContains)->Arg(1)->Arg(16)->Arg(64)->Arg(1024)->ArgName("entries");

void BM_FeatureExtraction(benchmark::State& state) {
  std::vector<RequestEvent> events(static_cast<size_t>(state.range(0)));
  Rng rng(19);
  for (RequestEvent& e : events) {
    e.kind = rng.Bernoulli(0.4) ? ResourceKind::kHtml : ResourceKind::kImage;
    e.has_referrer = rng.Bernoulli(0.6);
    e.status_class = rng.Bernoulli(0.9) ? 2 : 4;
  }
  for (auto _ : state) {
    FeatureVector v = ExtractFeatures(events);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(20)->Arg(160)->ArgName("events");

void BM_AdaBoostPredict(benchmark::State& state) {
  Dataset data;
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    Example e;
    e.label = i % 2 == 0 ? kLabelRobot : kLabelHuman;
    for (size_t f = 0; f < kNumFeatures; ++f) {
      e.x[f] = rng.UniformDouble() + (e.label == kLabelRobot ? 0.2 : 0.0);
    }
    data.examples.push_back(e);
  }
  AdaBoost model(AdaBoost::Config{200});
  model.Train(data);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(data.examples[i % data.size()].x));
    ++i;
  }
}
BENCHMARK(BM_AdaBoostPredict);

void BM_AdaBoostTrain200(benchmark::State& state) {
  Dataset data;
  Rng rng(29);
  for (int64_t i = 0; i < state.range(0); ++i) {
    Example e;
    e.label = i % 2 == 0 ? kLabelRobot : kLabelHuman;
    for (size_t f = 0; f < kNumFeatures; ++f) {
      e.x[f] = rng.UniformDouble() + (e.label == kLabelRobot ? 0.1 : 0.0);
    }
    data.examples.push_back(e);
  }
  for (auto _ : state) {
    AdaBoost model(AdaBoost::Config{200});
    model.Train(data);
    benchmark::DoNotOptimize(model.stumps().size());
  }
}
BENCHMARK(BM_AdaBoostTrain200)->Arg(1000)->Arg(4000)->ArgName("examples")
    ->Unit(benchmark::kMillisecond);

// The end-to-end per-request cost of the instrumenting proxy: one HTML
// page fetch, fully instrumented (key minting, beacon derivation, rewrite).
// The obs arg measures the tracing tax on this hot path (metrics are
// always on):
//   obs=1  metrics only (the default production configuration)
//   obs=2  metrics + request tracing sampled 1/64
void BM_ProxyServePage(benchmark::State& state) {
  SiteConfig site_config;
  site_config.num_pages = 50;
  Rng site_rng(31);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  SimClock clock;
  ProxyConfig config;
  config.host = site.host();
  ProxyServer proxy(config, &clock,
                    [&origin](const Request& r) { return origin.Handle(r); }, 37);
  TraceRecorder tracer(TraceRecorder::Config{128, 64, {}});
  if (state.range(0) == 2) {
    proxy.set_trace_recorder(&tracer);
  }
  uint32_t ip = 0;
  for (auto _ : state) {
    Request request;
    request.time = clock.Now();
    request.client_ip = IpAddress(++ip % 4096 + 1);
    request.url = Url::Make(site.host(), SiteModel::PagePath(ip % 50));
    request.headers.Set("User-Agent", "Mozilla/5.0 (bench)");
    ProxyServer::Result result = proxy.Handle(request);
    benchmark::DoNotOptimize(result.response.body.data());
    clock.Advance(1);
  }
}
BENCHMARK(BM_ProxyServePage)->Arg(1)->Arg(2)->ArgName("obs");

// Raw cost of one pre-resolved counter increment (the unit the proxy pays
// per recorded event on the hot path).
void BM_MetricsCounterInc(benchmark::State& state) {
  MetricsRegistry registry;
  Counter* counter = registry.FindOrCreateCounter("bench_counter_total");
  for (auto _ : state) {
    counter->Inc();
  }
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_MetricsCounterInc);

// One histogram observation: bucket search + shard cell add + sum update.
void BM_MetricsHistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  HistogramMetric* hist =
      registry.FindOrCreateHistogram("bench_hist_us", ExponentialBuckets(1.0, 2.0, 14));
  double v = 0.5;
  for (auto _ : state) {
    v = v < 9000.0 ? v * 1.7 : 0.5;
    hist->Observe(v);
  }
  benchmark::DoNotOptimize(hist->Snapshot().count);
}
BENCHMARK(BM_MetricsHistogramObserve);

// Scrape cost over a populated registry (the slow path; runs off the
// request thread in a real deployment).
void BM_MetricsScrape(benchmark::State& state) {
  MetricsRegistry registry;
  for (int i = 0; i < 64; ++i) {
    Counter* c = registry.FindOrCreateCounter("bench_family_total",
                                              {{"idx", std::to_string(i)}});
    c->Inc(static_cast<uint64_t>(i));
  }
  registry.FindOrCreateHistogram("bench_hist_us", ExponentialBuckets(1.0, 2.0, 14))
      ->Observe(3.0);
  for (auto _ : state) {
    RegistrySnapshot snapshot = registry.Scrape();
    benchmark::DoNotOptimize(snapshot.metrics.size());
  }
}
BENCHMARK(BM_MetricsScrape);

// Full trace lifecycle: start, open/close four spans, finish (what a
// sampled request pays on top of its normal work).
void BM_TraceStartFinish(benchmark::State& state) {
  TraceRecorder recorder(TraceRecorder::Config{128, 1, {}});
  for (auto _ : state) {
    TraceRecorder::Trace* trace = recorder.Start("/p/1.html", false);
    for (const char* name : {"parse", "origin_fetch", "rewrite_inject", "session_update"}) {
      const int span = trace->OpenSpan(name);
      trace->CloseSpan(span);
    }
    recorder.Finish(trace);
  }
  benchmark::DoNotOptimize(recorder.started());
}
BENCHMARK(BM_TraceStartFinish);

// The beacon-image hit path (the per-event cost of a mouse-movement proof).
void BM_ProxyBeaconHit(benchmark::State& state) {
  SimClock clock;
  ProxyConfig config;
  config.host = "www.example.com";
  ProxyServer proxy(config, &clock, [](const Request&) { return MakeHtmlResponse(""); }, 41);
  Rng rng(43);
  for (auto _ : state) {
    state.PauseTiming();
    const std::string key = rng.HexKey128();
    proxy.keys().Record(IpAddress(1), "/p/1.html", key, clock.Now());
    Request request;
    request.time = clock.Now();
    request.client_ip = IpAddress(1);
    request.url = Url::Make("www.example.com", "/__rd/bk_" + key + ".jpg");
    request.headers.Set("User-Agent", "Mozilla/5.0 (bench)");
    state.ResumeTiming();
    ProxyServer::Result result = proxy.Handle(request);
    benchmark::DoNotOptimize(result.response.status);
  }
}
BENCHMARK(BM_ProxyBeaconHit);

// The CRC32C every record of the state file carries: a small record, a
// page-sized one and a large one.
void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  Rng rng(47);
  for (char& c : data) {
    c = static_cast<char>(rng.UniformU64(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4 << 10)->Arg(1 << 20)->ArgName("bytes");

// A browsing session as the daemon persists it: a user agent, some
// signals, events and URL sets of a few dozen hashes each.
std::unique_ptr<SessionState> SyntheticSession(Rng& rng, uint64_t id) {
  const TimeMs first_request = 1000 + static_cast<TimeMs>(id);
  auto s = std::make_unique<SessionState>(
      id, IpAddress(0x0a000000u + static_cast<uint32_t>(id)),
      SharedUserAgent("Mozilla/5.0 (X11; Linux x86_64) bench/" + std::to_string(id % 50)),
      first_request);
  const auto requests = 20 + static_cast<int32_t>(rng.UniformU64(20));
  s->RestoreScalars(first_request + requests * 500, requests, /*instrumented_pages=*/4,
                    /*blocked=*/false, /*cgi_requests=*/0, /*get_requests=*/requests,
                    /*error_responses=*/0);
  s->signals().js_download_at = 2;
  s->signals().css_probe_at = 3;
  s->mutable_instrumented_page_indices() = {1, 6, 11, 16};
  std::vector<RequestEvent> events(static_cast<size_t>(requests));
  for (RequestEvent& e : events) {
    e.kind = static_cast<ResourceKind>(rng.UniformU64(3));
    e.status_class = 2;
    e.is_embedded = rng.Bernoulli(0.5);
  }
  s->RestoreEvents(events);
  s->served_links().Restore(RandomHashes(25, id * 3));
  s->served_embeds().Restore(RandomHashes(27, id * 3 + 1));
  s->visited_urls().Restore(RandomHashes(19, id * 3 + 2));
  return s;
}

// A state directory shaped like a daemon's after a run: a checkpoint's
// records of `sessions` / 2 sessions with four beacon keys each, then
// appended records that extend every one of them, add the other half,
// issue their keys and consume one key per session.
void WriteStateDir(const std::string& dir, size_t sessions) {
  Rng rng(53);
  std::vector<std::unique_ptr<SessionState>> all;
  std::vector<persistence::KeyEntryImage> keys;
  for (size_t i = 0; i < sessions; ++i) {
    all.push_back(SyntheticSession(rng, 1 + i));
    for (int k = 0; k < 4; ++k) {
      keys.push_back({all.back()->key().ip.value(), "/p/" + std::to_string(k) + ".html",
                      rng.HexKey128(), all.back()->first_request_time() + k});
    }
  }
  auto key_fields = [](const persistence::KeyEntryImage& k) {
    return persistence::KeyEntryFields{k.ip, k.page_path, k.key, k.issued_at};
  };
  const size_t compacted = sessions / 2;
  std::filesystem::create_directories(dir);
  ByteWriter journal;
  persistence::EncodeJournalHeader(&journal);
  for (size_t i = 0; i < 4 * compacted; ++i) {
    persistence::EncodeKeyIssued(key_fields(keys[i]), &journal);
  }
  for (size_t i = 0; i < compacted; ++i) {
    persistence::EncodeSessionUpdate(FieldsOfLive(*all[i]), persistence::RunMarks{}, &journal);
  }
  for (size_t i = 0; i < sessions; ++i) {
    SessionState& s = *all[i];
    persistence::RunMarks marks;
    if (i < compacted) {
      // Five more requests' worth of appends to a compacted session.
      marks = persistence::RunLengths(FieldsOfLive(s));
      s.mutable_instrumented_page_indices().push_back(21);
      s.RestoreEvents(std::vector<RequestEvent>(5));
      for (uint64_t h : RandomHashes(5, i + 7)) {
        s.served_links().InsertHash(h);
      }
      for (uint64_t h : RandomHashes(5, i + 11)) {
        s.served_embeds().InsertHash(h);
      }
      for (uint64_t h : RandomHashes(5, i + 13)) {
        s.visited_urls().InsertHash(h);
      }
    } else {
      for (int k = 0; k < 4; ++k) {
        persistence::EncodeKeyIssued(key_fields(keys[4 * i + k]), &journal);
      }
    }
    persistence::EncodeSessionUpdate(FieldsOfLive(s), marks, &journal);
    persistence::EncodeKeyConsumed(keys[4 * i].ip, keys[4 * i].key, &journal);
  }
  std::ofstream(dir + "/state.bin", std::ios::binary | std::ios::trunc) << journal.bytes();
}

// Restart recovery of a generated directory of N sessions: read, verify
// and replay every record into the tables and write the recovery
// checkpoint. Each iteration recovers a fresh copy.
void BM_StateStoreRecover(benchmark::State& state) {
  const std::filesystem::path root = std::filesystem::temp_directory_path() /
                                     ("robodet_bench_recover_" + std::to_string(::getpid()));
  const std::string source = (root / "source").string();
  const std::string work = (root / "work").string();
  WriteStateDir(source, static_cast<size_t>(state.range(0)));
  size_t restored = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(work);
    std::filesystem::copy(source, work);
    KeyTable keys(KeyTable::Config{});
    SessionTable sessions(SessionTable::Config{});
    StateStore store(PersistenceConfig{.state_dir = work}, &keys, &sessions);
    keys.set_observer(&store);
    state.ResumeTiming();
    restored = store.Recover(1000).sessions_restored;
    state.PauseTiming();
    keys.set_observer(nullptr);
    state.ResumeTiming();
  }
  std::filesystem::remove_all(root);
  state.counters["sessions_restored"] = static_cast<double>(restored);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StateStoreRecover)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->ArgName("sessions")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace robodet
