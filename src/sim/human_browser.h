// Human browsing model. A HumanBrowserClient renders pages the way a
// standard browser does: it fetches embedded CSS/JS/images, executes
// inline and external scripts (when JS is enabled) through the robodet
// JavaScript interpreter — so the *actual generated beacon scripts* run —
// emits mouse events after human think time, follows only visible links,
// and fetches the favicon. The fraction of humans with JavaScript disabled
// (4–6% in the paper) fetch CSS and images but neither download nor run
// scripts.
#ifndef ROBODET_SRC_SIM_HUMAN_BROWSER_H_
#define ROBODET_SRC_SIM_HUMAN_BROWSER_H_

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/attestation.h"
#include "src/html/document.h"
#include "src/js/interpreter.h"
#include "src/sim/client.h"
#include "src/site/site_model.h"

namespace robodet {

struct BrowserProfile {
  std::string name = "Firefox";
  std::string user_agent = "Mozilla/5.0 (X11; Linux) Gecko/20060101 Firefox/1.5";
  bool js_enabled = true;
  bool fetch_css = true;
  bool fetch_images = true;
  bool fetch_favicon = true;
};

// The stock browsers of §2.2. Index with Rng to diversify a population.
const std::vector<BrowserProfile>& StandardBrowserProfiles();

// A Lynx-style text browser: human, but fetches no CSS/images/scripts.
BrowserProfile TextBrowserProfile();

struct HumanConfig {
  int min_pages = 3;
  int max_pages = 30;
  // Probability that the user produces mouse movement on a given page
  // (conditioned on JS being enabled; without JS there is no handler).
  double mouse_move_prob = 0.95;
  // Mean think time between page views.
  TimeMs think_time_mean = 8 * kSecond;
  // Delay between consecutive subresource fetches (browser pipelining).
  TimeMs subfetch_delay = 120;
  // Probability of opting into the CAPTCHA (for the bandwidth incentive)
  // once per session, when the proxy offers one.
  double captcha_attempt_prob = 0.0;
};

class HumanBrowserClient : public Client {
 public:
  HumanBrowserClient(ClientIdentity identity, Rng rng, const SiteModel* site,
                     BrowserProfile profile, HumanConfig config);

  std::optional<TimeMs> Step(TimeMs now, Gateway& gateway) override;

  // §4.1 extension: gives this user a trusted input device whose events
  // the hardware attests. The device is owned by the caller.
  void set_input_device(const TrustedInputDevice* device) { input_device_ = device; }

 private:
  enum class Phase {
    kStart,
    kLoadPage,
    kSubresources,
    kMouseMove,
    kCaptchaFetch,
    kCaptchaSubmit,
    kNextPage,
    kDone,
  };

  // Per-page script sandbox: a fresh interpreter per document, as browsers
  // create a fresh global object per page.
  struct PageScriptsHolder {
    explicit PageScriptsHolder(const std::string& user_agent)
        : interp(JsInterpreter::Config{user_agent, 200000}) {}
    JsInterpreter interp;
  };

  void PlanPageLoad(const Url& url, const std::string& referrer);
  void OnPageLoaded(const Response& response);
  void RunScripts();
  // Runs an event handler of the current page and fetches the beacons it
  // requests, each attested by the input device when this user has one.
  void FireHandler(Gateway& gateway, const std::string& code);

  const SiteModel* site_;
  BrowserProfile profile_;
  HumanConfig config_;

  Phase phase_ = Phase::kStart;
  int pages_target_ = 0;
  int pages_loaded_ = 0;
  Url current_page_;
  std::string current_referrer_;
  std::unique_ptr<HtmlDocument> current_doc_;
  std::unique_ptr<PageScriptsHolder> scripts_;
  std::deque<Url> pending_subresources_;
  std::string mouse_handler_;
  bool inline_scripts_run_ = false;
  bool favicon_fetched_ = false;
  bool wants_favicon_ = true;
  // Browser cache: URLs of cacheable responses already fetched this
  // session. The server marks all instrumentation no-cache, so probes are
  // never skipped; static site assets are fetched once, as real browsers
  // do.
  std::set<std::string> cache_;
  const TrustedInputDevice* input_device_ = nullptr;  // Not owned.
  bool captcha_attempted_ = false;
  bool wants_captcha_ = false;
  std::string captcha_answer_;
  std::string captcha_token_;
  int redirects_followed_ = 0;
};

}  // namespace robodet

#endif  // ROBODET_SRC_SIM_HUMAN_BROWSER_H_
