#include "src/sim/population.h"

namespace robodet {
namespace {

// Human sub-parameters of the calibrated mix.
constexpr double kHumanJsDisabledFraction = 0.042;  // Paper: 3.4-6%.
// Fraction of humans on text-mode browsers (no CSS/images/JS at all).
constexpr double kHumanTextBrowserFraction = 0.05;
// Per page-view; low enough that some humans need several pages before
// their first event, which is what gives Figure 2's mouse CDF its tail.
constexpr double kHumanMouseProb = 0.55;
constexpr int kHumanMinPages = 4;

// Fraction of JS-executing smart bots whose header disagrees with their
// engine (drives Table 1's 0.7% browser-type mismatch row).
constexpr double kSmartUaMisalignedFraction = 0.15;

}  // namespace

std::string_view ClientTypeName(ClientType type) {
  switch (type) {
    case ClientType::kHuman:
      return "human";
    case ClientType::kCrawler:
      return "crawler";
    case ClientType::kPoliteCrawler:
      return "polite_crawler";
    case ClientType::kEmailHarvester:
      return "email_harvester";
    case ClientType::kReferrerSpammer:
      return "referrer_spammer";
    case ClientType::kClickFraud:
      return "click_fraud";
    case ClientType::kBulletinSpam:
      return "bulletin_spam";
    case ClientType::kLinkChecker:
      return "link_checker";
    case ClientType::kVulnScanner:
      return "vuln_scanner";
    case ClientType::kOfflineBrowser:
      return "offline_browser";
    case ClientType::kSmartBotScrapeOne:
      return "smart_scrape_one";
    case ClientType::kSmartBotScrapeAll:
      return "smart_scrape_all";
    case ClientType::kSmartBotJsNoEvents:
      return "smart_js_no_events";
    case ClientType::kSmartBotFullMimic:
      return "smart_full_mimic";
    case ClientType::kNumTypes:
      break;
  }
  return "?";
}

bool IsHumanType(ClientType type) { return type == ClientType::kHuman; }

const std::vector<double>& ClientTypeWeights() {
  static const std::vector<double> kWeights = {
      23.4,  // kHuman
      0.2,   // kCrawler
      0.2,   // kPoliteCrawler
      0.15,  // kEmailHarvester
      37.2,  // kReferrerSpammer
      24.5,  // kClickFraud
      1.5,   // kBulletinSpam
      0.5,   // kLinkChecker
      8.0,   // kVulnScanner
      0.3,   // kOfflineBrowser
      0.4,   // kSmartBotScrapeOne
      0.2,   // kSmartBotScrapeAll
      4.4,   // kSmartBotJsNoEvents
      0.0,   // kSmartBotFullMimic: none existed in 2006 (§4.1).
  };
  return kWeights;
}

PopulationFactory::PopulationFactory(const SiteModel* site, PopulationMix mix, uint64_t seed)
    : site_(site), mix_(std::move(mix)), rng_(seed) {}

IpAddress PopulationFactory::IpForIndex(uint32_t index) {
  // 10.0.0.0/8 simulation space, skipping .0 and .255 host octets.
  const uint32_t base = (10u << 24);
  const uint32_t host = index + 1;
  return IpAddress(base | (host & 0x00ffffff));
}

ClientType PopulationFactory::SampleType() {
  const size_t idx = rng_.WeightedIndex(ClientTypeWeights());
  return idx < static_cast<size_t>(ClientType::kNumTypes) ? static_cast<ClientType>(idx)
                                                          : ClientType::kHuman;
}

std::string PopulationFactory::RobotUserAgent() {
  // "We find that it is commonly forged in practice": most robots lie.
  if (rng_.Bernoulli(0.75)) {
    const auto& profiles = StandardBrowserProfiles();
    return profiles[rng_.UniformU64(profiles.size())].user_agent;
  }
  static const char* const kHonest[] = {
      "libwww-perl/5.805",
      "Wget/1.10.2",
      "Python-urllib/2.4",
      "curl/7.15.1",
      "Java/1.5.0_06",
  };
  return kHonest[rng_.UniformU64(5)];
}

std::unique_ptr<Client> PopulationFactory::MakeHuman(ClientIdentity id) {
  BrowserProfile profile;
  if (rng_.Bernoulli(kHumanTextBrowserFraction)) {
    profile = TextBrowserProfile();
  } else {
    const auto& profiles = StandardBrowserProfiles();
    profile = profiles[rng_.UniformU64(profiles.size())];
    profile.js_enabled = !rng_.Bernoulli(kHumanJsDisabledFraction);
  }
  id.user_agent = profile.user_agent;  // Humans do not forge.
  HumanConfig config;
  config.min_pages = kHumanMinPages;
  config.max_pages = mix_.human_max_pages;
  config.mouse_move_prob = kHumanMouseProb;
  config.captcha_attempt_prob = mix_.human_captcha_attempt_prob;
  return std::make_unique<HumanBrowserClient>(std::move(id), rng_.Fork(), site_,
                                              std::move(profile), config);
}

std::unique_ptr<Client> PopulationFactory::MakeSmartBot(ClientIdentity id, SmartBotMode mode,
                                                        bool execute_inline, bool synthesize) {
  SmartBotConfig config;
  config.robot = mix_.robot;
  config.mode = mode;
  config.run_inline_scripts = execute_inline;
  config.synthesize_events = synthesize;
  // JS-capable bots mimic browsers on cheap axes (images) to evade naive
  // content-mix heuristics; the behavioural probes still catch them.
  config.fetch_images = execute_inline;
  config.engine_agent = "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)";
  if (rng_.Bernoulli(kSmartUaMisalignedFraction)) {
    // A sloppy bot author: the engine self-reports its real name while the
    // header claims MSIE — the UA-echo comparison will catch it.
    config.engine_agent = "CustomBotEngine/0.9";
    id.user_agent = "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)";
  } else {
    // Careful bots keep the forged header consistent with what their
    // engine will echo.
    id.user_agent = config.engine_agent;
  }
  return std::make_unique<SmartBotClient>(std::move(id), rng_.Fork(), site_, std::move(config));
}

std::unique_ptr<Client> PopulationFactory::CreateClient(uint32_t index) {
  const ClientType type = SampleType();
  ClientIdentity id;
  id.ip = IpForIndex(index);
  id.type_name = std::string(ClientTypeName(type));
  id.is_human = IsHumanType(type);
  id.user_agent = RobotUserAgent();

  switch (type) {
    case ClientType::kHuman:
      return MakeHuman(std::move(id));
    case ClientType::kCrawler:
      return std::make_unique<CrawlerClient>(std::move(id), rng_.Fork(), site_, mix_.robot,
                                             /*polite=*/false);
    case ClientType::kPoliteCrawler:
      id.user_agent = "FriendlyCrawler/1.0 (+http://crawler.example.net/about)";
      return std::make_unique<CrawlerClient>(std::move(id), rng_.Fork(), site_, mix_.robot,
                                             /*polite=*/true);
    case ClientType::kEmailHarvester:
      return std::make_unique<EmailHarvesterClient>(std::move(id), rng_.Fork(), site_,
                                                    mix_.robot);
    case ClientType::kReferrerSpammer:
      return std::make_unique<ReferrerSpammerClient>(std::move(id), rng_.Fork(), site_,
                                                     mix_.robot);
    case ClientType::kClickFraud:
      return std::make_unique<ClickFraudClient>(std::move(id), rng_.Fork(), site_, mix_.robot);
    case ClientType::kBulletinSpam:
      return std::make_unique<BulletinSpamClient>(std::move(id), rng_.Fork(), site_,
                                                  mix_.robot);
    case ClientType::kLinkChecker:
      id.user_agent = "LinkChecker/2.1 (+http://validator.example.net)";
      return std::make_unique<LinkCheckerClient>(std::move(id), rng_.Fork(), site_,
                                                 mix_.robot);
    case ClientType::kVulnScanner:
      return std::make_unique<VulnScannerClient>(std::move(id), rng_.Fork(), site_,
                                                 mix_.robot);
    case ClientType::kOfflineBrowser:
      return std::make_unique<OfflineBrowserClient>(std::move(id), rng_.Fork(), site_,
                                                    mix_.robot);
    case ClientType::kSmartBotScrapeOne:
      return MakeSmartBot(std::move(id), SmartBotMode::kScrapeOne, false, false);
    case ClientType::kSmartBotScrapeAll:
      return MakeSmartBot(std::move(id), SmartBotMode::kScrapeAll, false, false);
    case ClientType::kSmartBotJsNoEvents:
      return MakeSmartBot(std::move(id), SmartBotMode::kInterpret, true, false);
    case ClientType::kSmartBotFullMimic:
      return MakeSmartBot(std::move(id), SmartBotMode::kInterpret, true, true);
    case ClientType::kNumTypes:
      break;
  }
  return MakeHuman(std::move(id));
}

}  // namespace robodet
