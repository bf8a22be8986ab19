#include "src/sim/robots.h"

#include "src/js/lexer.h"
#include "src/util/strings.h"

namespace robodet {
namespace {

// Robots stop early after this many blocked responses.
constexpr int kGiveUpAfterBlocks = 5;
// Zombies do not politely stop.
constexpr int kZombieGiveUpAfterBlocks = 50;

TimeMs NextDelay(Rng& rng, const RobotConfig& config) {
  return static_cast<TimeMs>(rng.Exponential(
             static_cast<double>(config.request_interval_mean))) +
         1;
}

bool IsHtmlish(const Url& url) { return ClassifyUrl(url) == ResourceKind::kHtml; }

}  // namespace

std::vector<std::string> ScrapeUrlsFromScript(const std::string& source) {
  std::vector<std::string> out;
  JsLexResult lexed = LexJs(source);
  if (!lexed.ok) {
    return out;
  }
  const std::vector<JsToken>& tokens = lexed.tokens;
  // Reassemble adjacent string concatenations ('ht' + 'tp://...') the way a
  // competent scraper would, so plain string-splitting alone does not hide
  // the URLs — only the dispatcher arithmetic does.
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].type != JsTokenType::kString) {
      continue;
    }
    std::string value(tokens[i].text);
    size_t j = i;
    while (j + 2 < tokens.size() && tokens[j + 1].type == JsTokenType::kPunct &&
           tokens[j + 1].text == "+" && tokens[j + 2].type == JsTokenType::kString) {
      value += tokens[j + 2].text;
      j += 2;
    }
    i = j;
    if (value.find("http://") != std::string::npos ||
        value.find("https://") != std::string::npos) {
      out.push_back(std::move(value));
    }
  }
  return out;
}

// --- CrawlerClient ---

CrawlerClient::CrawlerClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                             RobotConfig config, bool polite)
    : Client(std::move(identity), std::move(rng)),
      site_(site),
      config_(config),
      polite_(polite) {
  frontier_.push_back(Url::Make(site_->host(), SiteModel::PagePath(0)));
}

std::optional<TimeMs> CrawlerClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.max_requests ||
      blocks_ >= kGiveUpAfterBlocks) {
    return std::nullopt;
  }
  if (polite_ && !fetched_robots_txt_) {
    fetched_robots_txt_ = true;
    gateway.Fetch(identity(), Method::kGet, Url::Make(site_->host(), "/robots.txt"), "",
                  stats_ptr());
    return NextDelay(rng(), config_);
  }
  if (frontier_.empty()) {
    return std::nullopt;
  }
  const Url url = frontier_.front();
  frontier_.pop_front();
  Gateway::FetchResult result = gateway.Fetch(identity(), Method::kGet, url, "", stats_ptr());
  if (result.blocked) {
    ++blocks_;
    return NextDelay(rng(), config_);
  }
  if (result.response.IsHtml() && Is2xx(result.response.status)) {
    HtmlDocument doc(result.response.body);
    // Crawlers blindly follow every link — visible or hidden.
    for (const LinkRef& link : doc.Links()) {
      const Url target = url.Resolve(link.href);
      if (!IsHtmlish(target) && ClassifyUrl(target) != ResourceKind::kCgi) {
        continue;  // HTML-focused crawler.
      }
      if (polite_ && ClassifyUrl(target) == ResourceKind::kCgi) {
        continue;  // robots.txt disallows /cgi-bin/.
      }
      const std::string key = target.ToString();
      if (visited_.insert(key).second) {
        frontier_.push_back(target);
      }
    }
  }
  return NextDelay(rng(), config_);
}

// --- EmailHarvesterClient ---

EmailHarvesterClient::EmailHarvesterClient(ClientIdentity identity, Rng rng,
                                           const SiteModel* site, RobotConfig config)
    : Client(std::move(identity), std::move(rng)), site_(site), config_(config) {
  current_ = Url::Make(site_->host(), SiteModel::PagePath(site_->SampleEntryPage(this->rng())));
}

std::optional<TimeMs> EmailHarvesterClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.max_requests ||
      blocks_ >= kGiveUpAfterBlocks) {
    return std::nullopt;
  }
  Gateway::FetchResult result =
      gateway.Fetch(identity(), Method::kGet, current_, "", stats_ptr());
  if (result.blocked) {
    ++blocks_;
  } else if (result.response.IsHtml() && Is2xx(result.response.status)) {
    HtmlDocument doc(result.response.body);
    candidates_.clear();
    for (const LinkRef& link : doc.Links()) {
      candidates_.push_back(link.href);  // Hidden or not: harvesters do not render.
    }
  }
  if (!candidates_.empty()) {
    const std::string& href = candidates_[rng().UniformU64(candidates_.size())];
    current_ = current_.Resolve(href);
    if (!IsHtmlish(current_)) {
      current_ = Url::Make(site_->host(), SiteModel::PagePath(site_->SampleEntryPage(rng())));
    }
  } else {
    current_ = Url::Make(site_->host(), SiteModel::PagePath(site_->SampleEntryPage(rng())));
  }
  return NextDelay(rng(), config_);
}

// --- ReferrerSpammerClient ---

ReferrerSpammerClient::ReferrerSpammerClient(ClientIdentity identity, Rng rng,
                                             const SiteModel* site, RobotConfig config)
    : Client(std::move(identity), std::move(rng)), site_(site), config_(config) {
  spam_referrer_ =
      "http://cheap-deals-" + std::to_string(this->rng().UniformU64(100000)) + ".example.org/";
  recon_remaining_ = 5 + static_cast<int>(this->rng().UniformU64(16));
}

std::optional<TimeMs> ReferrerSpammerClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.max_requests ||
      blocks_ >= kGiveUpAfterBlocks) {
    return std::nullopt;
  }
  // Reconnaissance first: browse pages (with honest referrers) to find
  // spam targets. Only afterwards does the referrer-planting begin.
  if (recon_remaining_ > 0) {
    --recon_remaining_;
    Url page;
    if (recon_page_.empty() || rng().Bernoulli(0.4)) {
      page = Url::Make(site_->host(),
                       SiteModel::PagePath(site_->SampleEntryPage(rng())));
    } else {
      page = Url::Make(site_->host(),
                       SiteModel::PagePath(static_cast<PageId>(
                           rng().UniformU64(site_->page_count()))));
    }
    Gateway::FetchResult result =
        gateway.Fetch(identity(), Method::kGet, page, recon_page_, stats_ptr());
    if (result.blocked) {
      ++blocks_;
    }
    recon_page_ = page.ToString();
    if (trail_.size() < 32) {
      trail_.push_back(recon_page_);
    }
    return NextDelay(rng(), config_);
  }
  // Target a random page (or CGI endpoint) purely to plant the referrer.
  Url target;
  if (rng().Bernoulli(0.3)) {
    target = Url::Make(site_->host(),
                       site_->CgiPath(rng().UniformU64(SiteModel::kNumCgiEndpoints)),
                       "ref=" + std::to_string(rng().UniformU64(1000)));
  } else {
    target = Url::Make(
        site_->host(),
        SiteModel::PagePath(static_cast<PageId>(rng().UniformU64(site_->page_count()))));
  }
  // Occasionally audit a page already hit (checking whether the planted
  // trackback stuck), with a self-consistent referrer. Early windows of a
  // spam session therefore are not uniformly unseen-referrer.
  std::string referrer = spam_referrer_;
  if (!trail_.empty() && rng().Bernoulli(0.25)) {
    const std::string& back = trail_[rng().UniformU64(trail_.size())];
    if (const auto parsed = Url::Parse(back); parsed.has_value()) {
      referrer = trail_[rng().UniformU64(trail_.size())];
      target = *parsed;
    }
  }
  Gateway::FetchResult result =
      gateway.Fetch(identity(), Method::kGet, target, referrer, stats_ptr());
  if (trail_.size() < 32) {
    trail_.push_back(target.ToString());
  }
  if (result.blocked) {
    ++blocks_;
  }
  return NextDelay(rng(), config_);
}

// --- ClickFraudClient ---

ClickFraudClient::ClickFraudClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                                   RobotConfig config)
    : Client(std::move(identity), std::move(rng)), site_(site), config_(config) {
  affiliate_id_ = static_cast<int>(this->rng().UniformU64(10000));
}

std::optional<TimeMs> ClickFraudClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.max_requests ||
      blocks_ >= kGiveUpAfterBlocks) {
    return std::nullopt;
  }
  // Load (or rotate to) an ad-bearing landing page so the forged click
  // referrer names a URL the session has actually visited; rotation mixes
  // HTML fetches in among the CGI clicks.
  if (landing_page_.empty() || clicks_since_landing_ >= 10) {
    clicks_since_landing_ = 0;
    const Url landing = Url::Make(
        site_->host(),
        SiteModel::PagePath(static_cast<PageId>(rng().UniformU64(site_->page_count()))));
    landing_page_ = landing.ToString();
    Gateway::FetchResult result =
        gateway.Fetch(identity(), Method::kGet, landing, "", stats_ptr());
    if (result.blocked) {
      ++blocks_;
    }
    return NextDelay(rng(), config_);
  }
  const size_t endpoint = rng().UniformU64(SiteModel::kNumCgiEndpoints);
  const Url target = Url::Make(site_->host(), site_->CgiPath(endpoint),
                               "click=" + std::to_string(rng().UniformU64(100000)) +
                                   "&aff=" + std::to_string(affiliate_id_));
  ++clicks_since_landing_;
  Gateway::FetchResult result =
      gateway.Fetch(identity(), Method::kGet, target, landing_page_, stats_ptr());
  if (result.blocked) {
    ++blocks_;
  }
  return NextDelay(rng(), config_);
}

// --- VulnScannerClient ---

namespace {

const std::vector<std::string>& ProbePaths() {
  static const std::vector<std::string> kPaths = {
      "/phpmyadmin/index.php",
      "/phpMyAdmin/index.php",
      "/mysql/index.php",
      "/cgi-bin/formmail.pl",
      "/cgi-bin/FormMail.cgi",
      "/cgi-bin/php",
      "/cgi-bin/php4",
      "/cgi-bin/test-cgi",
      "/cgi-bin/awstats.pl",
      "/awstats/awstats.pl",
      "/xmlrpc.php",
      "/blog/xmlrpc.php",
      "/scripts/root.exe",
      "/MSADC/root.exe",
      "/c/winnt/system32/cmd.exe",
      "/admin/login.php",
      "/administrator/index.php",
      "/horde/README",
      "/webmail/src/login.php",
      "/_vti_bin/owssvr.dll",
  };
  return kPaths;
}

}  // namespace

VulnScannerClient::VulnScannerClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                                     RobotConfig config)
    : Client(std::move(identity), std::move(rng)), site_(site), config_(config) {
  next_probe_ = this->rng().UniformU64(ProbePaths().size());
}

std::optional<TimeMs> VulnScannerClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.max_requests ||
      blocks_ >= kGiveUpAfterBlocks) {
    return std::nullopt;
  }
  const std::vector<std::string>& probes = ProbePaths();
  std::string path = probes[next_probe_ % probes.size()];
  ++next_probe_;
  std::string query;
  if (rng().Bernoulli(0.4)) {
    query = "cmd=" + std::to_string(rng().UniformU64(1000));
  }
  Gateway::FetchResult result = gateway.Fetch(
      identity(), Method::kGet, Url::Make(site_->host(), path, query), "", stats_ptr());
  if (result.blocked) {
    ++blocks_;
  }
  return NextDelay(rng(), config_);
}

// --- OfflineBrowserClient ---

OfflineBrowserClient::OfflineBrowserClient(ClientIdentity identity, Rng rng,
                                           const SiteModel* site, RobotConfig config)
    : Client(std::move(identity), std::move(rng)), site_(site), config_(config) {
  frontier_.push_back(
      Url::Make(site_->host(), SiteModel::PagePath(site_->SampleEntryPage(this->rng()))));
  frontier_.push_back(Url::Make(site_->host(), "/favicon.ico"));
}

std::optional<TimeMs> OfflineBrowserClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.max_requests ||
      blocks_ >= kGiveUpAfterBlocks || frontier_.empty()) {
    return std::nullopt;
  }
  const Url url = frontier_.front();
  frontier_.pop_front();
  Gateway::FetchResult result = gateway.Fetch(identity(), Method::kGet, url, "", stats_ptr());
  if (result.blocked) {
    ++blocks_;
    return NextDelay(rng(), config_);
  }
  if (result.response.IsHtml() && Is2xx(result.response.status)) {
    HtmlDocument doc(result.response.body);
    // Mirror everything: every embedded object (CSS probe included — this
    // is why off-line browsers pass the CSS test)...
    for (const EmbedRef& embed : doc.EmbeddedObjects()) {
      const Url target = url.Resolve(embed.url);
      const std::string key = target.ToString();
      if (visited_.insert(key).second) {
        frontier_.push_back(target);
      }
    }
    // ... and every link, hidden or not (which is why the hidden-link trap
    // still catches them).
    for (const LinkRef& link : doc.Links()) {
      const Url target = url.Resolve(link.href);
      const std::string key = target.ToString();
      if (visited_.insert(key).second) {
        frontier_.push_back(target);
      }
    }
  }
  return NextDelay(rng(), config_);
}

// --- LinkCheckerClient ---

LinkCheckerClient::LinkCheckerClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                                     RobotConfig config)
    : Client(std::move(identity), std::move(rng)), site_(site), config_(config) {
  pages_.push_back(
      Url::Make(site_->host(), SiteModel::PagePath(site_->SampleEntryPage(this->rng()))));
}

std::optional<TimeMs> LinkCheckerClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.max_requests ||
      blocks_ >= kGiveUpAfterBlocks) {
    return std::nullopt;
  }
  // HEAD-verify queued links first.
  if (!to_check_.empty()) {
    const Url url = to_check_.front();
    to_check_.pop_front();
    Gateway::FetchResult result =
        gateway.Fetch(identity(), Method::kHead, url, "", stats_ptr());
    if (result.blocked) {
      ++blocks_;
    }
    return NextDelay(rng(), config_);
  }
  if (pages_.empty()) {
    return std::nullopt;
  }
  const Url page = pages_.front();
  pages_.pop_front();
  Gateway::FetchResult result = gateway.Fetch(identity(), Method::kGet, page, "", stats_ptr());
  if (result.blocked) {
    ++blocks_;
    return NextDelay(rng(), config_);
  }
  if (result.response.IsHtml() && Is2xx(result.response.status)) {
    HtmlDocument doc(result.response.body);
    for (const LinkRef& link : doc.Links()) {
      const Url target = page.Resolve(link.href);
      if (seen_.insert(target.ToString()).second) {
        to_check_.push_back(target);
        // A few checked pages get crawled in turn.
        if (ClassifyUrl(target) == ResourceKind::kHtml && pages_.size() < 8 &&
            rng().Bernoulli(0.3)) {
          pages_.push_back(target);
        }
      }
    }
  }
  return NextDelay(rng(), config_);
}

// --- BulletinSpamClient ---

BulletinSpamClient::BulletinSpamClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                                       RobotConfig config)
    : Client(std::move(identity), std::move(rng)), site_(site), config_(config) {
  spam_payload_ = "msg=Great+deals+at+http://pills-" +
                  std::to_string(this->rng().UniformU64(100000)) + ".example.org/";
}

std::optional<TimeMs> BulletinSpamClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.max_requests ||
      blocks_ >= kGiveUpAfterBlocks) {
    return std::nullopt;
  }
  const std::string board_url = "http://" + site_->host() + SiteModel::BoardPath();
  if (!loaded_board_) {
    loaded_board_ = true;
    Gateway::FetchResult result = gateway.Fetch(
        identity(), Method::kGet, Url::Make(site_->host(), SiteModel::BoardPath()), "",
        stats_ptr());
    if (result.blocked) {
      ++blocks_;
    }
    return NextDelay(rng(), config_);
  }
  Gateway::FetchResult result = gateway.Post(
      identity(), Url::Make(site_->host(), SiteModel::BoardPostPath()), spam_payload_,
      board_url, stats_ptr());
  if (result.blocked) {
    ++blocks_;
  }
  return NextDelay(rng(), config_);
}

// --- ZombieFloodClient ---

ZombieFloodClient::ZombieFloodClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                                     RobotConfig config)
    : Client(std::move(identity), std::move(rng)), site_(site), config_(config) {}

std::optional<TimeMs> ZombieFloodClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.max_requests ||
      blocks_ >= kZombieGiveUpAfterBlocks) {
    return std::nullopt;
  }
  // Alternate page and CGI floods; zombies re-request hot URLs, which is
  // what makes flash-crowd mimicry plausible at the aggregate level.
  Url target;
  if (rng().Bernoulli(0.5)) {
    target = Url::Make(site_->host(),
                       site_->CgiPath(rng().UniformU64(SiteModel::kNumCgiEndpoints)),
                       "q=" + std::to_string(rng().UniformU64(8)));
  } else {
    target = Url::Make(site_->host(), SiteModel::PagePath(site_->SampleEntryPage(rng())));
  }
  Gateway::FetchResult result = gateway.Fetch(identity(), Method::kGet, target, "", stats_ptr());
  if (result.blocked) {
    ++blocks_;
  }
  return NextDelay(rng(), config_);
}

// --- SmartBotClient ---

SmartBotClient::SmartBotClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                               SmartBotConfig config)
    : Client(std::move(identity), std::move(rng)), site_(site), config_(std::move(config)) {
  current_page_ =
      Url::Make(site_->host(), SiteModel::PagePath(site_->SampleEntryPage(this->rng())));
  next_pages_.push_back(current_page_.ToString());
}

std::optional<TimeMs> SmartBotClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  if (static_cast<int>(stats().requests) >= config_.robot.max_requests ||
      blocks_ >= kGiveUpAfterBlocks) {
    return std::nullopt;
  }
  // Drain pending subresource fetches first.
  if (!pending_fetches_.empty()) {
    const Url url = pending_fetches_.front();
    pending_fetches_.pop_front();
    Gateway::FetchResult result = gateway.Fetch(identity(), Method::kGet, url,
                                                current_page_.ToString(), stats_ptr());
    if (result.blocked) {
      ++blocks_;
      return NextDelay(rng(), config_.robot);
    }
    // A fetched beacon script gets handled per the bot's mode.
    if (ClassifyUrl(url) == ResourceKind::kJavaScript && Is2xx(result.response.status) &&
        url.path().find("js_") != std::string::npos) {
      switch (config_.mode) {
        case SmartBotMode::kScrapeOne:
        case SmartBotMode::kScrapeAll: {
          std::vector<std::string> urls = ScrapeUrlsFromScript(result.response.body);
          std::vector<std::string> beacons;
          for (std::string& u : urls) {
            if (u.find("bk_") != std::string::npos) {
              beacons.push_back(std::move(u));
            }
          }
          if (!beacons.empty()) {
            if (config_.mode == SmartBotMode::kScrapeOne) {
              const std::string& pick = beacons[rng().UniformU64(beacons.size())];
              if (const auto parsed = Url::Parse(pick); parsed.has_value()) {
                pending_fetches_.push_back(*parsed);
              }
            } else {
              rng().Shuffle(beacons);
              for (const std::string& b : beacons) {
                if (const auto parsed = Url::Parse(b); parsed.has_value()) {
                  pending_fetches_.push_back(*parsed);
                }
              }
            }
          }
          break;
        }
        case SmartBotMode::kInterpret: {
          JsInterpreter interp(JsInterpreter::Config{config_.engine_agent, 200000});
          interp.Run(result.response.body);
          if (config_.synthesize_events && !handler_code_.empty()) {
            interp.RunHandler(handler_code_);
          }
          for (const std::string& fetched : interp.fetched_urls()) {
            if (const auto parsed = Url::Parse(fetched); parsed.has_value()) {
              pending_fetches_.push_back(*parsed);
            }
          }
          break;
        }
      }
    }
    return NextDelay(rng(), config_.robot);
  }
  // Load the next page.
  if (next_pages_.empty()) {
    return std::nullopt;
  }
  const std::string next = next_pages_[rng().UniformU64(next_pages_.size())];
  next_pages_.clear();
  current_page_ = current_page_.Resolve(next);
  Gateway::FetchResult result =
      gateway.Fetch(identity(), Method::kGet, current_page_, "", stats_ptr());
  if (result.blocked) {
    ++blocks_;
    return NextDelay(rng(), config_.robot);
  }
  if (result.response.IsHtml() && Is2xx(result.response.status)) {
    ProcessPage(gateway, result.response);
  }
  return NextDelay(rng(), config_.robot);
}

void SmartBotClient::ProcessPage(Gateway& gateway, const Response& response) {
  (void)gateway;
  HtmlDocument doc(response.body);
  handler_code_ = doc.BodyEventHandler();

  for (const EmbedRef& embed : doc.EmbeddedObjects()) {
    const Url target = current_page_.Resolve(embed.url);
    if (embed.kind == EmbedRef::Kind::kCss && config_.fetch_css) {
      pending_fetches_.push_back(target);
    } else if (embed.kind == EmbedRef::Kind::kScript) {
      pending_fetches_.push_back(target);
    } else if (embed.kind == EmbedRef::Kind::kImage && config_.fetch_images) {
      pending_fetches_.push_back(target);
    }
  }
  if (config_.fetch_images && !favicon_fetched_) {
    favicon_fetched_ = true;
    pending_fetches_.push_back(Url::Make(site_->host(), "/favicon.ico"));
  }
  if (config_.mode == SmartBotMode::kInterpret && config_.run_inline_scripts) {
    JsInterpreter interp(JsInterpreter::Config{config_.engine_agent, 200000});
    for (const std::string& code : doc.InlineScripts()) {
      interp.Run(code);
    }
    for (const std::string& written : interp.document_writes()) {
      HtmlDocument written_doc(written);
      for (const EmbedRef& embed : written_doc.EmbeddedObjects()) {
        if (embed.kind == EmbedRef::Kind::kCss) {
          pending_fetches_.push_back(current_page_.Resolve(embed.url));
        }
      }
    }
  }
  // Smart bots follow only visible links (they render well enough to know
  // better than to touch traps).
  for (const LinkRef& link : doc.VisibleLinks()) {
    const Url target = current_page_.Resolve(link.href);
    if (IsHtmlish(target)) {
      next_pages_.push_back(link.href);
    }
  }
}

}  // namespace robodet
