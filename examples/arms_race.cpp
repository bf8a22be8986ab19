// arms_race: the §4.1 escalation ladder. Pits increasingly capable robots
// against the detectors — a URL-scraping bot, a fetch-everything bot, a
// JS-executing bot without synthetic events, and finally the paper's
// hypothetical "intelligent bot" that synthesizes mouse events — and shows
// where the defense holds and where it falls.
//
// Build & run:  ./build/examples/arms_race
#include <cstdio>
#include <optional>

#include "src/robodet.h"

namespace {

using namespace robodet;

struct Rung {
  const char* name;
  SmartBotMode mode;
  bool run_inline;
  bool synthesize;
  const char* engine;  // Engine string; header is always forged MSIE.
};

}  // namespace

int main() {
  const Rung kLadder[] = {
      {"scrape one URL", SmartBotMode::kScrapeOne, false, false,
       "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)"},
      {"scrape all URLs", SmartBotMode::kScrapeAll, false, false,
       "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)"},
      {"execute JS, no events", SmartBotMode::kInterpret, true, false,
       "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)"},
      {"execute JS, sloppy engine", SmartBotMode::kInterpret, true, false,
       "CustomBotEngine/0.9"},
      {"full mimic (synthetic events)", SmartBotMode::kInterpret, true, true,
       "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)"},
  };

  std::printf("arms_race: robot capability vs. detection outcome (m = 4 decoys)\n\n");
  std::printf("%-32s %8s %8s %8s\n", "robot capability", "human", "robot", "unknown");

  CombinedClassifier classifier;
  for (const Rung& rung : kLadder) {
    int human = 0;
    int robot = 0;
    int unknown = 0;
    constexpr int kTrials = 30;
    for (int trial = 0; trial < kTrials; ++trial) {
      SiteConfig site_config;
      site_config.num_pages = 40;
      Rng site_rng(700 + trial);
      SiteModel site = SiteModel::Generate(site_config, site_rng);
      OriginServer origin(&site);
      SimClock clock;
      ProxyConfig proxy_config;
      proxy_config.host = site.host();
      ProxyServer proxy(proxy_config, &clock,
                        [&origin](const Request& r) { return origin.Handle(r); },
                        900 + trial);
      Gateway gateway(&proxy, &clock);

      SmartBotConfig bot_config;
      bot_config.robot.max_requests = 60;
      bot_config.robot.request_interval_mean = 100;
      bot_config.mode = rung.mode;
      bot_config.run_inline_scripts = rung.run_inline;
      bot_config.synthesize_events = rung.synthesize;
      bot_config.engine_agent = rung.engine;
      ClientIdentity id;
      id.ip = IpAddress(1000 + static_cast<uint32_t>(trial));
      id.user_agent = "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)";
      SmartBotClient bot(id, Rng(77 + trial), &site, bot_config);
      while (true) {
        const auto delay = bot.Step(clock.Now(), gateway);
        if (!delay.has_value()) {
          break;
        }
        clock.Advance(*delay);
      }
      SessionState* session =
          proxy.sessions().Touch({id.ip, id.user_agent}, clock.Now());
      switch (classifier.ClassifyOnline(session->observation()).verdict) {
        case Verdict::kHuman:
          ++human;
          break;
        case Verdict::kRobot:
          ++robot;
          break;
        case Verdict::kUnknown:
          ++unknown;
          break;
      }
    }
    std::printf("%-32s %7d%% %7d%% %7d%%\n", rung.name, human * 100 / kTrials,
                robot * 100 / kTrials, unknown * 100 / kTrials);
  }

  std::printf(
      "\nReading: the decoy scheme catches scrapers; the UA echo catches sloppy\n"
      "JS engines; only a bot that runs the script AND synthesizes input events\n"
      "defeats the mechanism — exactly the limitation §4.1 concedes, which is\n"
      "why the paper points to trusted input hardware and staged ML fallback.\n");

  // §4.1's proposed fix, implemented: require hardware attestation on
  // input events and re-run the full mimic.
  {
    AttestationAuthority authority;
    int caught = 0;
    constexpr int kTrials = 30;
    CombinedClassifier classifier;
    for (int trial = 0; trial < kTrials; ++trial) {
      SiteConfig site_config;
      site_config.num_pages = 40;
      Rng site_rng(800 + trial);
      SiteModel site = SiteModel::Generate(site_config, site_rng);
      OriginServer origin(&site);
      SimClock clock;
      ProxyConfig proxy_config;
      proxy_config.host = site.host();
      proxy_config.require_attestation = true;
      ProxyServer proxy(proxy_config, &clock,
                        [&origin](const Request& r) { return origin.Handle(r); },
                        1700 + trial);
      proxy.set_attestation_authority(&authority);
      Gateway gateway(&proxy, &clock);

      SmartBotConfig bot_config;
      bot_config.robot.max_requests = 60;
      bot_config.robot.request_interval_mean = 100;
      bot_config.mode = SmartBotMode::kInterpret;
      bot_config.run_inline_scripts = true;
      bot_config.synthesize_events = true;
      bot_config.engine_agent = "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)";
      ClientIdentity id;
      id.ip = IpAddress(2000 + static_cast<uint32_t>(trial));
      id.user_agent = bot_config.engine_agent;
      SmartBotClient bot(id, Rng(177 + trial), &site, bot_config);
      while (true) {
        const auto delay = bot.Step(clock.Now(), gateway);
        if (!delay.has_value()) {
          break;
        }
        clock.Advance(*delay);
      }
      SessionState* session = proxy.sessions().Touch({id.ip, id.user_agent}, clock.Now());
      if (classifier.ClassifyOnline(session->observation()).verdict == Verdict::kRobot) {
        ++caught;
      }
    }
    std::printf("\nWith hardware input attestation required (the §4.1 trusted-computing\n"
                "path, implemented in core/attestation.h): full mimic caught %d%%.\n",
                caught * 100 / kTrials);
  }

  // The scheme's cost to humans: under the same requirement, a user whose
  // input device the authority manufactured, and one without such a device.
  {
    AttestationAuthority authority;
    CombinedClassifier classifier;
    std::printf("\nHumans under required attestation:\n");
    std::printf("%-32s %8s %8s %8s\n", "human", "human", "robot", "unknown");
    for (const bool has_device : {true, false}) {
      int human = 0;
      int robot = 0;
      int unknown = 0;
      constexpr int kTrials = 30;
      for (int trial = 0; trial < kTrials; ++trial) {
        SiteConfig site_config;
        site_config.num_pages = 40;
        Rng site_rng(900 + trial);
        SiteModel site = SiteModel::Generate(site_config, site_rng);
        OriginServer origin(&site);
        SimClock clock;
        ProxyConfig proxy_config;
        proxy_config.host = site.host();
        proxy_config.require_attestation = true;
        ProxyServer proxy(proxy_config, &clock,
                          [&origin](const Request& r) { return origin.Handle(r); },
                          2700 + trial);
        proxy.set_attestation_authority(&authority);
        Gateway gateway(&proxy, &clock);

        const BrowserProfile profile = StandardBrowserProfiles()[1];  // JS enabled.
        ClientIdentity id;
        id.ip = IpAddress(3000 + static_cast<uint32_t>(trial));
        id.user_agent = profile.user_agent;
        id.is_human = true;
        HumanBrowserClient user(id, Rng(277 + trial), &site, profile, HumanConfig{});
        std::optional<TrustedInputDevice> device;
        if (has_device) {
          device.emplace(authority.ManufactureDevice());
          user.set_input_device(&*device);
        }
        while (true) {
          const auto delay = user.Step(clock.Now(), gateway);
          if (!delay.has_value()) {
            break;
          }
          clock.Advance(*delay);
        }
        SessionState* session = proxy.sessions().Touch({id.ip, id.user_agent}, clock.Now());
        switch (classifier.ClassifyOnline(session->observation()).verdict) {
          case Verdict::kHuman:
            ++human;
            break;
          case Verdict::kRobot:
            ++robot;
            break;
          case Verdict::kUnknown:
            ++unknown;
            break;
        }
      }
      std::printf("%-32s %7d%% %7d%% %7d%%\n",
                  has_device ? "with a trusted input device" : "without one", human * 100 / kTrials,
                  robot * 100 / kTrials, unknown * 100 / kTrials);
    }
  }
  return 0;
}
