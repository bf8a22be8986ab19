// Ablation: the obfuscation ladder. §2.1 argues that obfuscation forces a
// robot to *execute* the script rather than read it. We measure, per
// level: what a lexical scraper recovers (all beacon URLs? which is
// real?), the script's size, and the generation cost — the security /
// bandwidth / CPU trade-off an operator tunes. The generation cost is wall
// clock time, so it goes to stderr and stdout stays the same from run to
// run.
//
// Usage: ablation_obfuscation [trials]   (default 200)
#include <chrono>

#include "bench/bench_util.h"
#include "src/sim/robots.h"

using namespace robodet;

int main(int argc, char** argv) {
  const size_t trials = ClientsFromArgs(argc, argv, 200);
  PrintHeader("Ablation — obfuscation level vs. scraper yield, size and cost");

  std::printf("\n  %-6s %16s %16s %12s\n", "level", "URLs recovered", "real key exposed",
              "script size");
  std::fprintf(stderr, "  %-6s %12s\n", "level", "gen cost");
  for (int level = 0; level <= 5; ++level) {
    size_t urls_recovered = 0;
    size_t real_exposed = 0;
    size_t bytes = 0;
    std::chrono::nanoseconds elapsed{0};
    Rng rng(10'000 + static_cast<uint64_t>(level));
    for (size_t t = 0; t < trials; ++t) {
      BeaconSpec spec;
      spec.host = "www.example.com";
      spec.path_prefix = "/__rd/";
      spec.real_key = rng.HexKey128();
      for (int m = 0; m < 4; ++m) {
        spec.decoy_keys.push_back(rng.HexKey128());
      }
      spec.obfuscation_level = level;
      spec.pad_to_bytes = level >= 3 ? 1024 : 0;

      const auto start = std::chrono::steady_clock::now();
      const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
      elapsed += std::chrono::steady_clock::now() - start;
      bytes += beacon.script_source.size();

      // The scraper's view: which URLs fall out of a lexical pass?
      const auto urls = ScrapeUrlsFromScript(beacon.script_source);
      size_t beacons = 0;
      bool saw_real = false;
      for (const std::string& u : urls) {
        if (u.find("bk_") != std::string::npos) {
          ++beacons;
          saw_real |= u == beacon.real_url;
        }
      }
      urls_recovered += beacons;
      real_exposed += saw_real ? 1 : 0;
    }
    char recovered[32];
    std::snprintf(recovered, sizeof(recovered), "%.1f / 5",
                  static_cast<double>(urls_recovered) / static_cast<double>(trials));
    char cost[32];
    std::snprintf(cost, sizeof(cost), "%.0f us",
                  static_cast<double>(elapsed.count()) / 1000.0 /
                      static_cast<double>(trials));
    std::printf("  %-6d %16s %16s %10zu B\n", level, recovered,
                FormatPercent(static_cast<double>(real_exposed) / trials).c_str(),
                bytes / trials);
    std::fprintf(stderr, "  %-6d %12s\n", level, cost);
  }

  std::printf(
      "\nReading: levels 0-4 leave all five beacon URLs lexically recoverable —\n"
      "string splitting only forces the scraper to do concatenation — but at no\n"
      "level can it tell WHICH of the m+1 is real without evaluating the\n"
      "dispatcher arithmetic (and, at level 4, the opaque predicates). Level 5\n"
      "(String.fromCharCode encoding) removes the URLs from the lexical surface\n"
      "entirely: the scraper recovers nothing and cannot even blind-fetch.\n"
      "'Real key exposed' counts scripts where the real URL is recoverable at\n"
      "all, not identifiable; each scrape-and-guess at levels <= 4 is caught\n"
      "with probability m/(m+1) (see ablation_decoys). The paper's §3.2 cost\n"
      "anchor: ~1KB script generated in ~144 us on a 2 GHz Pentium 4.\n");
  return 0;
}
