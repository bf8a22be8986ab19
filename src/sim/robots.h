// The robot bestiary: one client model per malicious-robot family the
// paper names (§1) plus the off-line browser exception (§2.2) and the
// §4.1 "intelligent bot" that executes JavaScript and synthesizes events.
#ifndef ROBODET_SRC_SIM_ROBOTS_H_
#define ROBODET_SRC_SIM_ROBOTS_H_

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/html/document.h"
#include "src/js/interpreter.h"
#include "src/sim/client.h"
#include "src/site/site_model.h"

namespace robodet {

struct RobotConfig {
  // Mean delay between requests; robots are much faster than humans.
  TimeMs request_interval_mean = 400;
  int max_requests = 150;
};

// Search-engine-style crawler: HTML only, breadth-first, follows every
// link on the page — including the invisible trap link.
class CrawlerClient : public Client {
 public:
  CrawlerClient(ClientIdentity identity, Rng rng, const SiteModel* site, RobotConfig config,
                bool polite = false);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  const SiteModel* site_;
  RobotConfig config_;
  bool polite_;  // Polite crawlers fetch /robots.txt first and honor it.
  bool fetched_robots_txt_ = false;
  std::deque<Url> frontier_;
  std::set<std::string> visited_;
  int blocks_ = 0;
};

// Email-address harvester: random-walk over HTML pages, never fetches
// embedded objects, high request rate.
class EmailHarvesterClient : public Client {
 public:
  EmailHarvesterClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                       RobotConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  const SiteModel* site_;
  RobotConfig config_;
  Url current_;
  std::vector<std::string> candidates_;
  int blocks_ = 0;
};

// Referrer spammer: hammers pages with forged Referer headers pointing at
// the site being promoted; never cares about the response content.
class ReferrerSpammerClient : public Client {
 public:
  ReferrerSpammerClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                        RobotConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  const SiteModel* site_;
  RobotConfig config_;
  std::string spam_referrer_;
  std::vector<std::string> trail_;  // Pages already hit (for audit visits).
  // Reconnaissance budget: the bot first browses like a reader to find
  // pages worth spamming, so the session's early window looks organic.
  int recon_remaining_ = 0;
  std::string recon_page_;
  int blocks_ = 0;
};

// Click-fraud generator: repeated CGI "click-through" requests with
// fabricated referrers and affiliate parameters.
class ClickFraudClient : public Client {
 public:
  ClickFraudClient(ClientIdentity identity, Rng rng, const SiteModel* site, RobotConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  const SiteModel* site_;
  RobotConfig config_;
  int affiliate_id_ = 0;
  std::string landing_page_;
  int clicks_since_landing_ = 0;
  int blocks_ = 0;
};

// Vulnerability scanner: probes a dictionary of exploit paths, producing
// mostly 404s and CGI hits.
class VulnScannerClient : public Client {
 public:
  VulnScannerClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                    RobotConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  const SiteModel* site_;
  RobotConfig config_;
  size_t next_probe_ = 0;
  int blocks_ = 0;
};

// Off-line browser / site mirrorer: downloads *everything* — embedded CSS
// (so it passes the CSS probe), images, script files (without executing
// them) — and follows every link including hidden ones. The paper's
// explicit exception case.
class OfflineBrowserClient : public Client {
 public:
  OfflineBrowserClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                       RobotConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  const SiteModel* site_;
  RobotConfig config_;
  std::deque<Url> frontier_;
  std::set<std::string> visited_;
  int blocks_ = 0;
};

// JavaScript-capable robot (§4.1's hypothetical attacker, which we build
// to measure the defense honestly).
enum class SmartBotMode {
  // Lexically scrape URLs out of the beacon script and fetch ONE at
  // random: caught with probability m/(m+1) by the decoys.
  kScrapeOne,
  // Fetch every URL in the script ("blindly fetches embedded objects"):
  // always trips a decoy when m >= 1.
  kScrapeAll,
  // Actually execute the script and synthesize a mouse event: fetches only
  // the real beacon and evades human-activity detection.
  kInterpret,
};

struct SmartBotConfig {
  RobotConfig robot;
  SmartBotMode mode = SmartBotMode::kScrapeOne;
  // Fetch the CSS probe to blend in with browsers.
  bool fetch_css = true;
  // Fetch embedded images (and the favicon, once) to blend in further.
  bool fetch_images = false;
  // Run the inline UA-echo script (kInterpret only).
  bool run_inline_scripts = true;
  // Engine-reported agent string; if it differs from the forged header the
  // UA-echo comparison flags a browser-type mismatch.
  std::string engine_agent = "CustomBotEngine/0.9";
  // kInterpret only: also fire the page's mouse handler with synthetic
  // events — the §4.1 future bot. Today's JS-capable robots execute
  // scripts but produce no events (the S_JS − S_MM population).
  bool synthesize_events = false;
};

class SmartBotClient : public Client {
 public:
  SmartBotClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                 SmartBotConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  void ProcessPage(Gateway& gateway, const Response& response);

  const SiteModel* site_;
  SmartBotConfig config_;
  Url current_page_;
  std::deque<Url> pending_fetches_;
  std::vector<std::string> next_pages_;
  std::string handler_code_;
  bool favicon_fetched_ = false;
  int blocks_ = 0;
};

// Link checker (§1's benign example: "performing repetitive tasks such
// as checking the validity of URL links"): fetches a page, then issues
// HEAD requests for every link on it. Identifies itself honestly and is
// HTML/HEAD-only — the classic high-HEAD%, probe-deaf profile.
class LinkCheckerClient : public Client {
 public:
  LinkCheckerClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                    RobotConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  const SiteModel* site_;
  RobotConfig config_;
  std::deque<Url> pages_;
  std::deque<Url> to_check_;
  std::set<std::string> seen_;
  int blocks_ = 0;
};

// Bulletin-board spammer (§1: "spamming bulletin boards"): loads the
// board page once (so its POST referrer is self-consistent), then floods
// the post endpoint with link spam.
class BulletinSpamClient : public Client {
 public:
  BulletinSpamClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                     RobotConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  const SiteModel* site_;
  RobotConfig config_;
  bool loaded_board_ = false;
  std::string spam_payload_;
  int blocks_ = 0;
};

// DDoS zombie (§1 use case (1)): one compromised machine in a flooding
// botnet. Hammers pages and CGI endpoints far faster than any human,
// fetching nothing embedded; the rate-limiting policy is the defense.
class ZombieFloodClient : public Client {
 public:
  ZombieFloodClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                    RobotConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

 private:
  const SiteModel* site_;
  RobotConfig config_;
  int blocks_ = 0;
};

// Extracts every string literal that looks like a URL from JavaScript
// source — the scraper's tool. Exposed for tests.
std::vector<std::string> ScrapeUrlsFromScript(const std::string& source);

}  // namespace robodet

#endif  // ROBODET_SRC_SIM_ROBOTS_H_
