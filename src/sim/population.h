// Population mixing: turns a weighted mix of client archetypes into
// concrete Client instances with unique IPs, per-type User-Agent policies
// and independent random streams. The default mix is calibrated so that a
// Table-1-style run reproduces CoDeeN's observed session fractions (see
// bench/table1_sessions.cc for the calibration notes).
#ifndef ROBODET_SRC_SIM_POPULATION_H_
#define ROBODET_SRC_SIM_POPULATION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/client.h"
#include "src/sim/human_browser.h"
#include "src/sim/robots.h"
#include "src/site/site_model.h"

namespace robodet {

enum class ClientType {
  kHuman,
  kCrawler,
  kPoliteCrawler,
  kEmailHarvester,
  kReferrerSpammer,
  kClickFraud,
  kBulletinSpam,
  kLinkChecker,
  kVulnScanner,
  kOfflineBrowser,
  kSmartBotScrapeOne,
  kSmartBotScrapeAll,
  kSmartBotJsNoEvents,   // Executes JS, no synthetic events (S_JS - S_MM).
  kSmartBotFullMimic,    // §4.1 future bot: JS + synthetic mouse events.
  kNumTypes,
};

std::string_view ClientTypeName(ClientType type);
bool IsHumanType(ClientType type);

// Relative weight of each client type, indexed by ClientType and
// normalized when sampled. Calibrated so a Table-1 run over sessions with
// >10 requests lands near CoDeeN's observed fractions (CSS 28.9%, JS
// 27.1%, mouse 22.3%, hidden 1.0%, UA mismatch 0.7%, S_H 24.2%). See
// bench/table1_sessions.cc.
const std::vector<double>& ClientTypeWeights();

struct PopulationMix {
  // Human sub-parameters; the rest of the calibrated mix is fixed in
  // population.cc.
  double human_captcha_attempt_prob = 0.0;  // Enabled for Table-1 runs.
  int human_max_pages = 26;

  // Robot pacing/volume.
  RobotConfig robot;
};

class PopulationFactory {
 public:
  PopulationFactory(const SiteModel* site, PopulationMix mix, uint64_t seed);

  // Creates the index-th client; IPs are unique per index.
  std::unique_ptr<Client> CreateClient(uint32_t index);

  // The type that client index would get (deterministic given the seed).
  ClientType SampleType();

  static IpAddress IpForIndex(uint32_t index);

 private:
  std::unique_ptr<Client> MakeHuman(ClientIdentity id);
  std::unique_ptr<Client> MakeSmartBot(ClientIdentity id, SmartBotMode mode,
                                       bool execute_inline, bool synthesize);
  std::string RobotUserAgent();

  const SiteModel* site_;
  PopulationMix mix_;
  Rng rng_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_SIM_POPULATION_H_
