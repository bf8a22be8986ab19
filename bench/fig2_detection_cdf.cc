// Reproduces Figure 2: "CDF of # of Requests Needed to Detect Humans" —
// for each detection signal (CSS probe fetch, beacon-script download,
// mouse event), the distribution over sessions of the request index at
// which the signal first fired.
//
// Paper reference points: 80% of mouse-event clients detected within 20
// requests, 95% within 57; CSS: 95% within 19 requests, 99% within 48;
// JS files similar to CSS.
//
// Usage: fig2_detection_cdf [num_clients]   (default 4000)
#include "bench/bench_util.h"

using namespace robodet;

namespace {

void ReportCdf(const char* name, const EmpiricalCdf& cdf) {
  if (cdf.count() == 0) {
    std::printf("%-14s (no sessions)\n", name);
    return;
  }
  std::printf("%-14s sessions=%zu  p50=%2.0f  p80=%2.0f  p90=%2.0f  p95=%2.0f  p99=%2.0f\n",
              name, cdf.count(), cdf.Quantile(0.50), cdf.Quantile(0.80), cdf.Quantile(0.90),
              cdf.Quantile(0.95), cdf.Quantile(0.99));
}

void PrintCurve(const char* name, const EmpiricalCdf& cdf) {
  std::printf("\n  %s: fraction detected within N requests\n", name);
  std::printf("    N:   ");
  for (int n = 10; n <= 100; n += 10) {
    std::printf("%6d", n);
  }
  std::printf("\n    CDF: ");
  for (int n = 10; n <= 100; n += 10) {
    std::printf("%6.2f", cdf.FractionAtOrBelow(n));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const size_t num_clients = ClientsFromArgs(argc, argv, 4000);
  PrintHeader("Figure 2 — CDF of requests needed to detect humans");

  Experiment experiment(CodeenWeekConfig(num_clients, 19571106));
  experiment.Run();

  EmpiricalCdf css;
  EmpiricalCdf js;
  EmpiricalCdf mouse;
  for (const SessionRecord* r : experiment.RecordsWithMinRequests(kTable1MinRequests)) {
    const SessionSignals& sig = r->signals();
    if (sig.css_probe_at > 0) {
      css.Add(sig.css_probe_at);
    }
    if (sig.js_download_at > 0) {
      js.Add(sig.js_download_at);
    }
    if (sig.mouse_event_at > 0) {
      mouse.Add(sig.mouse_event_at);
    }
  }

  std::printf("\nmeasured percentiles (request index of first detection):\n");
  ReportCdf("CSS files", css);
  ReportCdf("JS files", js);
  ReportCdf("Mouse events", mouse);

  std::printf("\npaper reference: mouse 80%%@20 req, 95%%@57; CSS 95%%@19, 99%%@48; "
              "JS ~ CSS\n");

  PrintCurve("CSS files", css);
  PrintCurve("JavaScript files", js);
  PrintCurve("Mouse events", mouse);

  // The paper's qualitative claim: browser testing decides faster than
  // human-activity detection.
  std::printf("\nshape check: CSS p95 (%.0f) < mouse p95 (%.0f): %s\n", css.Quantile(0.95),
              mouse.Quantile(0.95), css.Quantile(0.95) < mouse.Quantile(0.95) ? "yes" : "NO");
  return 0;
}
