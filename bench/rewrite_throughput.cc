// Rewrite-path throughput: the zero-copy streaming rewriter (InstrumentHtml)
// against the materializing reference rewriter (tests/html/reference_rewriter)
// on small/medium/large documents, plus beacon-script generation cost at
// 0/4/16 decoys (the paper's ~144 µs / 2 GHz P4 §3.2 number).
//
// Output is `key=value` lines for tools/bench_to_json. Keys prefixed
// `gate_` are dimensionless ratios — machine-independent, and the ones the
// CI regression check compares.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/html/injector.h"
#include "src/js/generator.h"
#include "src/obs/trace.h"
#include "src/site/site_model.h"
#include "src/util/rng.h"
#include "tests/html/reference_rewriter.h"

namespace robodet {
namespace {

std::string MakeDocument(size_t target_bytes) {
  SiteConfig config;
  config.num_pages = 8;
  Rng rng(0x5e11);
  SiteModel site = SiteModel::Generate(config, rng);
  std::string html = site.RenderPage(0);
  if (html.size() > target_bytes) {
    // The generated page already exceeds the small targets; start from a
    // compact skeleton instead so small/medium/large genuinely differ.
    html = "<html><head><title>bench</title></head><body><h1>Index</h1>\n";
  }
  // Pad with realistic markup (links, attributes, comments), not plain
  // text, so the tokenizer sees representative tag density.
  size_t n = 0;
  while (html.size() < target_bytes) {
    html += "<div class=\"row\" id=\"r" + std::to_string(n) +
            "\"><a href=\"/p/" + std::to_string(n % 40) +
            ".html\" title='item'>entry</a> <span>text body of the row, "
            "long enough to matter</span><!-- row marker --></div>\n";
    ++n;
  }
  return html;
}

InjectionPlan FullPlan() {
  InjectionPlan plan;
  plan.beacon_script_url = "http://www.example.com/__rd/js_token.js";
  plan.mouse_handler_code = "return rdmm(event);";
  plan.ua_echo_script = "var a = navigator.userAgent; rdua(a);";
  plan.css_probe_url = "http://www.example.com/__rd/cp_token.css";
  plan.hidden_link_url = "http://www.example.com/__rd/hl_token.html";
  plan.transparent_image_url = "http://www.example.com/__rd/ti.jpg";
  plan.hook_links = true;
  return plan;
}

// Runs `fn` until ~120 ms of wall time has elapsed; returns seconds/call.
template <typename Fn>
double TimePerCall(Fn&& fn) {
  constexpr uint64_t kBudgetNs = 120ull * 1000 * 1000;
  // Warm-up and calibration.
  fn();
  uint64_t iters = 0;
  const uint64_t t0 = MonotonicNanos();
  uint64_t elapsed = 0;
  do {
    fn();
    ++iters;
    elapsed = MonotonicNanos() - t0;
  } while (elapsed < kBudgetNs);
  return static_cast<double>(elapsed) / 1e9 / static_cast<double>(iters);
}

// The median of `ns`, in seconds.
double MedianSeconds(std::vector<uint64_t>& ns) {
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(ns.size() / 2), ns.end());
  return static_cast<double>(ns[ns.size() / 2]) / 1e9;
}

// Times `a` and `b` alternately, one call each per iteration, until ~720 ms
// of wall time has elapsed; returns the median seconds/call of each.
// Interleaving per call rather than per timed block means both terms of a
// ratio see the same host state, and the median drops the calls a busy
// spell or a preemption hit. Each timed call follows an untimed call of the
// same path, so it runs on caches that path warmed, as in a loop of its own.
template <typename FnA, typename FnB>
std::pair<double, double> TimePairPerCall(FnA&& a, FnB&& b) {
  constexpr uint64_t kBudgetNs = 720ull * 1000 * 1000;
  std::vector<uint64_t> a_ns;
  std::vector<uint64_t> b_ns;
  const uint64_t t0 = MonotonicNanos();
  uint64_t t = t0;
  do {
    a();
    const uint64_t a0 = MonotonicNanos();
    a();
    const uint64_t a1 = MonotonicNanos();
    b();
    const uint64_t b0 = MonotonicNanos();
    b();
    t = MonotonicNanos();
    a_ns.push_back(a1 - a0);
    b_ns.push_back(t - b0);
  } while (t - t0 < kBudgetNs);
  return {MedianSeconds(a_ns), MedianSeconds(b_ns)};
}

struct Case {
  const char* name;
  size_t bytes;
};

}  // namespace
}  // namespace robodet

int main() {
  using namespace robodet;

  const Case cases[] = {{"small", 2u << 10}, {"medium", 16u << 10}, {"large", 256u << 10}};
  const InjectionPlan plan = FullPlan();

  double min_speedup = 1e9;
  for (const Case& c : cases) {
    const std::string html = MakeDocument(c.bytes);
    // The gate may only time two paths that agree: same bytes, same count.
    const InjectionResult stream = InstrumentHtml(html, plan);
    const InjectionResult legacy = reference::InstrumentHtml(html, plan);
    if (stream.html != legacy.html || stream.added_bytes != legacy.added_bytes) {
      std::fprintf(stderr, "FATAL: stream/legacy output diverged on %s\n", c.name);
      return 1;
    }
    const auto [stream_s, legacy_s] =
        TimePairPerCall([&] { (void)InstrumentHtml(html, plan); },
                        [&] { (void)reference::InstrumentHtml(html, plan); });
    const double mb = static_cast<double>(html.size()) / (1024.0 * 1024.0);
    const double stream_mbps = mb / stream_s;
    const double legacy_mbps = mb / legacy_s;
    const double speedup = stream_mbps / legacy_mbps;
    if (speedup < min_speedup) {
      min_speedup = speedup;
    }
    std::printf("rewrite_%s_stream_mbps=%.1f\n", c.name, stream_mbps);
    std::printf("rewrite_%s_legacy_mbps=%.1f\n", c.name, legacy_mbps);
    std::printf("rewrite_%s_speedup=%.2f\n", c.name, speedup);
  }
  std::printf("gate_rewrite_speedup_min=%.2f\n", min_speedup);

  // Beacon-script generation (includes obfuscation at the production level).
  for (size_t decoys : {size_t{0}, size_t{4}, size_t{16}}) {
    BeaconSpec spec;
    spec.host = "www.example.com";
    spec.path_prefix = "/__rd/";
    Rng key_rng(0xbea0 + decoys);
    spec.real_key = key_rng.HexKey128();
    for (size_t i = 0; i < decoys; ++i) {
      spec.decoy_keys.push_back(key_rng.HexKey128());
    }
    spec.obfuscation_level = 2;
    spec.pad_to_bytes = 1024;
    Rng rng(7);
    const double per_call_s = TimePerCall([&] {
      GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
      if (beacon.script_source.empty()) {
        std::fprintf(stderr, "FATAL: empty beacon script\n");
      }
    });
    std::printf("beacon_gen_us_d%zu=%.1f\n", decoys, per_call_s * 1e6);
  }
  return 0;
}
