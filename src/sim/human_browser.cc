#include "src/sim/human_browser.h"

#include <algorithm>

#include "src/http/cache_control.h"
#include "src/js/generator.h"
#include "src/js/interpreter.h"
#include "src/proxy/captcha.h"
#include "src/util/strings.h"

namespace robodet {
namespace {

// Probability of jumping to a random popular page instead of clicking a
// link (bookmark/URL-bar navigation).
constexpr double kJumpProb = 0.15;

// Probability the favicon is NOT already cached (browsers cache favicons
// essentially forever, so most sessions never request one).
constexpr double kFaviconColdCacheProb = 0.35;

}  // namespace

const std::vector<BrowserProfile>& StandardBrowserProfiles() {
  static const std::vector<BrowserProfile> kProfiles = {
      {"IE6", "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)", true, true, true, true},
      {"Firefox", "Mozilla/5.0 (X11; Linux) Gecko/20060101 Firefox/1.5", true, true, true,
       true},
      {"Mozilla", "Mozilla/5.0 (Windows; U; Windows NT 5.0) Gecko/20051111", true, true, true,
       true},
      {"Safari", "Mozilla/5.0 (Macintosh; PPC Mac OS X) AppleWebKit/418 Safari/417.9.3", true,
       true, true, true},
      {"Netscape", "Mozilla/5.0 (Windows; U; Windows NT 5.1) Netscape/8.1", true, true, true,
       true},
      {"Opera", "Opera/8.54 (Windows NT 5.1; U; en)", true, true, true, true},
  };
  return kProfiles;
}

BrowserProfile TextBrowserProfile() {
  // Lynx-style text browser: real human, but fetches no CSS, no images, no
  // scripts — indistinguishable from an HTML-only robot on the 12 Table-2
  // attributes, and invisible to both behavioural probes. These users are
  // part of why the paper's ML tops out around 95%.
  BrowserProfile profile;
  profile.name = "Lynx";
  profile.user_agent = "Lynx/2.8.5rel.1 libwww-FM/2.14";
  profile.js_enabled = false;
  profile.fetch_css = false;
  profile.fetch_images = false;
  profile.fetch_favicon = false;
  return profile;
}

HumanBrowserClient::HumanBrowserClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                                       BrowserProfile profile, HumanConfig config)
    : Client(std::move(identity), std::move(rng)),
      site_(site),
      profile_(std::move(profile)),
      config_(config) {
  wants_favicon_ = this->rng().Bernoulli(kFaviconColdCacheProb);
  wants_captcha_ = this->rng().Bernoulli(config_.captcha_attempt_prob);
}

std::optional<TimeMs> HumanBrowserClient::Step(TimeMs now, Gateway& gateway) {
  (void)now;
  switch (phase_) {
    case Phase::kStart: {
      pages_target_ = static_cast<int>(
          rng().UniformInt(config_.min_pages, std::max(config_.min_pages, config_.max_pages)));
      const PageId entry = site_->SampleEntryPage(rng());
      PlanPageLoad(Url::Make(site_->host(), SiteModel::PagePath(entry)), "");
      return TimeMs{1};
    }

    case Phase::kLoadPage: {
      Gateway::FetchResult result =
          gateway.Fetch(identity(), Method::kGet, current_page_, current_referrer_, stats_ptr());
      if (result.blocked) {
        phase_ = Phase::kDone;
        return std::nullopt;  // A blocked human gives up (and complains).
      }
      if (Is3xx(result.response.status) && redirects_followed_ < 3) {
        const auto target = result.response.RedirectTarget(current_page_);
        if (target.has_value()) {
          ++redirects_followed_;
          current_referrer_ = current_page_.ToString();
          current_page_ = *target;
          return config_.subfetch_delay;  // Stay in kLoadPage.
        }
      }
      redirects_followed_ = 0;
      if (!result.response.IsHtml() || !Is2xx(result.response.status)) {
        // Dead link: back off and try another page.
        phase_ = Phase::kNextPage;
        return config_.think_time_mean / 4;
      }
      OnPageLoaded(result.response);
      phase_ = Phase::kSubresources;
      return config_.subfetch_delay;
    }

    case Phase::kSubresources: {
      if (!pending_subresources_.empty()) {
        const Url url = pending_subresources_.front();
        pending_subresources_.pop_front();
        if (cache_.contains(url.ToString())) {
          return TimeMs{1};  // Cache hit: no request reaches the proxy.
        }
        Gateway::FetchResult result = gateway.Fetch(identity(), Method::kGet, url,
                                                    current_page_.ToString(), stats_ptr());
        if (IsCacheable(result.response) && cache_.size() < 4096) {
          cache_.insert(url.ToString());
        }
        // External scripts execute as they arrive.
        if (profile_.js_enabled && ClassifyUrl(url) == ResourceKind::kJavaScript &&
            Is2xx(result.response.status) && scripts_ != nullptr) {
          scripts_->interp.Run(result.response.body);
        }
        return config_.subfetch_delay;
      }
      // Queue drained: run inline scripts once (document order puts the
      // UA-echo inline block after the external includes).
      if (!inline_scripts_run_ && profile_.js_enabled && scripts_ != nullptr &&
          current_doc_ != nullptr) {
        inline_scripts_run_ = true;
        RunScripts();
        if (!pending_subresources_.empty()) {
          return config_.subfetch_delay;
        }
      }
      // Mouse movement while reading.
      if (profile_.js_enabled && !mouse_handler_.empty() &&
          rng().Bernoulli(config_.mouse_move_prob)) {
        phase_ = Phase::kMouseMove;
        // Users touch the mouse quickly after the page renders.
        return static_cast<TimeMs>(rng().Exponential(1500.0)) + 50;
      }
      phase_ = Phase::kNextPage;
      return static_cast<TimeMs>(rng().Exponential(
                 static_cast<double>(config_.think_time_mean))) +
             100;
    }

    case Phase::kMouseMove: {
      if (scripts_ != nullptr) {
        FireHandler(gateway, mouse_handler_);
      }
      phase_ = Phase::kNextPage;
      return static_cast<TimeMs>(rng().Exponential(
                 static_cast<double>(config_.think_time_mean))) +
             100;
    }

    case Phase::kCaptchaFetch: {
      const std::string& prefix = gateway.proxy_config().instr_prefix;
      const Url url = Url::Make(site_->host(), ProbeUrl(prefix, ProbeKind::kCaptchaPage));
      Gateway::FetchResult result =
          gateway.Fetch(identity(), Method::kGet, url, current_page_.ToString(), stats_ptr());
      const auto answer = CaptchaService::ReadAnswerFromBody(result.response.body);
      // Find the submit link to recover the token.
      captcha_token_.clear();
      HtmlDocument doc(result.response.body);
      for (const LinkRef& link : doc.Links()) {
        const Url target = url.Resolve(link.href);
        const ParsedProbe probe = ParseProbePath(target.path(), prefix);
        if (probe.kind == ProbeKind::kCaptchaSubmit) {
          captcha_token_ = probe.name;
          break;
        }
      }
      if (answer.has_value() && !captcha_token_.empty()) {
        captcha_answer_ = *answer;  // Humans read the distorted image.
        phase_ = Phase::kCaptchaSubmit;
        return 4 * kSecond;  // Typing time.
      }
      phase_ = Phase::kNextPage;
      return config_.think_time_mean;
    }

    case Phase::kCaptchaSubmit: {
      const Url url = Url::Make(
          site_->host(),
          ProbeUrl(gateway.proxy_config().instr_prefix, ProbeKind::kCaptchaSubmit, captcha_token_),
          "ans=" + captcha_answer_);
      gateway.Fetch(identity(), Method::kGet, url, current_page_.ToString(), stats_ptr());
      phase_ = Phase::kNextPage;
      return config_.think_time_mean;
    }

    case Phase::kNextPage: {
      // The CAPTCHA opt-in (for the bandwidth incentive) is a one-time,
      // per-user decision; JS-disabled users can take it too.
      if (wants_captcha_ && !captcha_attempted_ && gateway.proxy_config().enable_captcha) {
        captcha_attempted_ = true;
        phase_ = Phase::kCaptchaFetch;
        return 500;
      }
      ++pages_loaded_;
      if (pages_loaded_ >= pages_target_) {
        phase_ = Phase::kDone;
        return std::nullopt;
      }
      std::string referrer = current_page_.ToString();
      Url next;
      std::vector<LinkRef> visible;
      if (current_doc_ != nullptr) {
        visible = current_doc_->VisibleLinks();
      }
      if (!visible.empty() && !rng().Bernoulli(kJumpProb)) {
        const LinkRef& link = visible[rng().UniformU64(visible.size())];
        next = current_page_.Resolve(link.href);
        // The paper's alternative hook: an onclick handler on the link
        // itself fires on the click that navigates away.
        if (!link.onclick.empty() && profile_.js_enabled && scripts_ != nullptr) {
          FireHandler(gateway, link.onclick);
        }
      } else {
        next = Url::Make(site_->host(), SiteModel::PagePath(site_->SampleEntryPage(rng())));
        referrer.clear();  // URL-bar navigation carries no referrer.
      }
      PlanPageLoad(next, referrer);
      return TimeMs{1};
    }

    case Phase::kDone:
      return std::nullopt;
  }
  return std::nullopt;
}

void HumanBrowserClient::PlanPageLoad(const Url& url, const std::string& referrer) {
  current_page_ = url;
  current_referrer_ = referrer;
  current_doc_.reset();
  scripts_.reset();
  pending_subresources_.clear();
  mouse_handler_.clear();
  inline_scripts_run_ = false;
  phase_ = Phase::kLoadPage;
}

void HumanBrowserClient::OnPageLoaded(const Response& response) {
  current_doc_ = std::make_unique<HtmlDocument>(response.body);
  if (profile_.js_enabled) {
    scripts_ = std::make_unique<PageScriptsHolder>(profile_.user_agent);
  }
  mouse_handler_ = current_doc_->BodyEventHandler();

  // Queue subresources in document-ish order: scripts, then CSS, then
  // images, then favicon (once per session).
  for (const EmbedRef& embed : current_doc_->EmbeddedObjects()) {
    const Url url = current_page_.Resolve(embed.url);
    switch (embed.kind) {
      case EmbedRef::Kind::kScript:
        if (profile_.js_enabled) {
          pending_subresources_.push_back(url);
        }
        break;
      case EmbedRef::Kind::kCss:
        if (profile_.fetch_css) {
          pending_subresources_.push_back(url);
        }
        break;
      case EmbedRef::Kind::kImage:
      case EmbedRef::Kind::kAudio:
        if (profile_.fetch_images) {
          pending_subresources_.push_back(url);
        }
        break;
      case EmbedRef::Kind::kFrame:
        break;  // No frames in the synthetic site.
    }
  }
  // Browsers issue subresource fetches in parallel; the order the *proxy*
  // observes is completion order, which is effectively jittered. This is
  // what stretches the CSS-probe detection CDF into the multi-request tail
  // the paper measures (95% within 19 requests, not within 3).
  std::vector<Url> shuffled(pending_subresources_.begin(), pending_subresources_.end());
  rng().Shuffle(shuffled);
  pending_subresources_.assign(shuffled.begin(), shuffled.end());

  if (profile_.fetch_favicon && wants_favicon_ && !favicon_fetched_) {
    favicon_fetched_ = true;
    pending_subresources_.push_back(Url::Make(site_->host(), "/favicon.ico"));
  }
}

void HumanBrowserClient::RunScripts() {
  if (scripts_ == nullptr || current_doc_ == nullptr) {
    return;
  }
  scripts_->interp.ClearObservations();
  for (const std::string& code : current_doc_->InlineScripts()) {
    scripts_->interp.Run(code);
  }
  // document.write output becomes part of the page: fetch any stylesheets
  // (the UA-echo <link>) and images it introduces.
  for (const std::string& written : scripts_->interp.document_writes()) {
    HtmlDocument written_doc(written);
    for (const EmbedRef& embed : written_doc.EmbeddedObjects()) {
      if (embed.kind == EmbedRef::Kind::kCss && profile_.fetch_css) {
        pending_subresources_.push_back(current_page_.Resolve(embed.url));
      } else if (embed.kind == EmbedRef::Kind::kImage && profile_.fetch_images) {
        pending_subresources_.push_back(current_page_.Resolve(embed.url));
      }
    }
  }
  // Scripted Image() fetches outside handlers fire immediately (none in the
  // standard beacon, but robots' scripts may differ).
  for (const std::string& fetched : scripts_->interp.fetched_urls()) {
    if (const auto url = Url::Parse(fetched); url.has_value()) {
      pending_subresources_.push_back(*url);
    }
  }
}

void HumanBrowserClient::FireHandler(Gateway& gateway, const std::string& code) {
  scripts_->interp.ClearObservations();
  scripts_->interp.RunHandler(code);
  for (const std::string& fetched : scripts_->interp.fetched_urls()) {
    if (const auto url = Url::Parse(fetched); url.has_value()) {
      // The hardware input stack attests the event behind this beacon.
      Headers extra;
      const Headers* extra_ptr = nullptr;
      if (input_device_ != nullptr) {
        const std::string key = ExtractBeaconKey(url->path(), gateway.proxy_config().instr_prefix);
        if (!key.empty()) {
          extra.Set(AttestationAuthority::kHeaderName, input_device_->HeaderValue(key));
          extra_ptr = &extra;
        }
      }
      gateway.Fetch(identity(), Method::kGet, *url, current_page_.ToString(), stats_ptr(),
                    extra_ptr);
    }
  }
}

}  // namespace robodet
