// Seeded visitor scripts. The browse mix reproduces what the paper's
// detectors see from real clients, in the simulator's calibrated shares:
// JS-capable humans (who run the served beacon script and its mouse
// handler), humans without JS, link-following crawlers (which take the
// hidden link) and scrapers guessing beacon URLs. The flood mix is
// spoofed robots hammering the probe namespace.
#include <time.h>

#include <algorithm>
#include <cstdio>

#include "perfbench/perfbench.h"
#include "src/js/interpreter.h"
#include "src/proxy/proxy_server.h"
#include "src/proxy/token_minter.h"
#include "src/site/site_model.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using robodet::Rng;

const std::vector<std::string>& BrowserAgents() {
  static const std::vector<std::string> kAgents = {
      "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)",
      "Mozilla/5.0 (X11; Linux) Gecko/20060101 Firefox/1.5",
      "Mozilla/5.0 (Macintosh; PPC Mac OS X) AppleWebKit/418 Safari/417.9.3",
  };
  return kAgents;
}

const std::vector<std::string>& RobotAgents() {
  static const std::vector<std::string> kAgents = {
      "Mozilla/5.0 (compatible; Googlebot/2.1)",
      "libwww-perl/5.805",
      "Wget/1.10.2",
  };
  return kAgents;
}

std::string Ipv4(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", v >> 24, (v >> 16) & 255, (v >> 8) & 255,
                v & 255);
  return buf;
}

// Address `index` of a seeded population in 24-bit `space`: an odd stride
// makes the map a bijection, so addresses never repeat within 2^24.
std::string Address(int space, uint64_t seed, uint64_t index) {
  const uint64_t salt = robodet::Mix64(seed);
  const uint64_t stride = (robodet::Mix64(seed ^ 0x5bd1e995ULL) << 1) | 1;
  return Ipv4((static_cast<uint32_t>(space) << 24) |
              static_cast<uint32_t>((salt + index * stride) & 0xFFFFFF));
}

std::string HexToken(Rng& rng, size_t chars) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(chars, '0');
  for (char& c : out) {
    c = kHex[rng.UniformU64(16)];
  }
  return out;
}

// Origin-form target of an href as the page carries it: absolute URLs on
// the site host lose their scheme and host, other absolute URLs are
// skipped.
std::string TargetOf(std::string_view href) {
  constexpr std::string_view kScheme = "http://";
  if (href.substr(0, kScheme.size()) == kScheme) {
    href.remove_prefix(kScheme.size());
    if (href.substr(0, kSiteHost.size()) != kSiteHost) {
      return "";
    }
    href.remove_prefix(kSiteHost.size());
  }
  return href.empty() || href[0] != '/' ? "" : std::string(href);
}

bool IsInstr(std::string_view target, std::string_view stem) {
  return target.substr(0, kInstrPrefix.size()) == kInstrPrefix &&
         target.substr(kInstrPrefix.size(), stem.size()) == stem;
}

// What a browser needs from a page: its links (hidden ones apart), the
// objects it embeds, its inline scripts and its body mouse handler. A
// small scanner of the markup the site and the injector emit, so the
// client side of the benchmark stays cheap and independent of the
// library's HTML layer.
struct PageScan {
  std::vector<std::string> links;
  std::vector<std::string> hidden_links;
  std::vector<std::string> scripts;
  std::vector<std::string> stylesheets;
  std::vector<std::string> images;
  std::vector<std::string> inline_scripts;
  std::string onmousemove;
};

struct Tag {
  std::string name;  // Lowercase; "/a" for a closing anchor.
  std::vector<std::pair<std::string, std::string>> attrs;
  std::string_view Attr(std::string_view key) const {
    for (const auto& [k, v] : attrs) {
      if (k == key) {
        return v;
      }
    }
    return {};
  }
};

// Parses the tag starting at html[pos] == '<'; returns the index after
// its '>' (or npos when the tag never closes).
size_t ParseTag(std::string_view html, size_t pos, Tag* tag) {
  size_t i = pos + 1;
  auto name_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '/' || c == '-' || c == '!';
  };
  while (i < html.size() && name_char(html[i])) {
    tag->name += static_cast<char>(html[i] | 0x20);
    ++i;
  }
  // Only these tags matter to a visitor; skip the others' attributes.
  static constexpr std::string_view kWanted[] = {"a", "/a", "img", "link", "script", "body"};
  if (std::find(std::begin(kWanted), std::end(kWanted), tag->name) == std::end(kWanted)) {
    const size_t end = html.find('>', i);
    return end == std::string_view::npos ? end : end + 1;
  }
  while (i < html.size() && html[i] != '>') {
    if (html[i] == ' ' || html[i] == '\n' || html[i] == '\t' || html[i] == '/') {
      ++i;
      continue;
    }
    std::string key;
    while (i < html.size() && html[i] != '=' && html[i] != '>' && html[i] != ' ') {
      key += static_cast<char>(html[i] | 0x20);
      ++i;
    }
    std::string value;
    if (i < html.size() && html[i] == '=') {
      ++i;
      if (i < html.size() && (html[i] == '"' || html[i] == '\'')) {
        const char quote = html[i++];
        const size_t end = html.find(quote, i);
        if (end == std::string_view::npos) {
          return std::string_view::npos;
        }
        value = html.substr(i, end - i);
        i = end + 1;
      } else {
        while (i < html.size() && html[i] != ' ' && html[i] != '>') {
          value += html[i++];
        }
      }
    }
    tag->attrs.emplace_back(std::move(key), std::move(value));
  }
  return i < html.size() ? i + 1 : std::string_view::npos;
}

PageScan ScanPage(std::string_view html) {
  PageScan scan;
  // The open anchor, if any: its href and what it has shown so far.
  std::string anchor;
  bool in_anchor = false;
  bool anchor_visible = false;
  size_t pos = 0;
  while (pos < html.size()) {
    const size_t lt = html.find('<', pos);
    const std::string_view text = html.substr(pos, lt - pos);
    if (in_anchor && text.find_first_not_of(" \t\r\n") != std::string_view::npos) {
      anchor_visible = true;
    }
    if (lt == std::string_view::npos) {
      break;
    }
    Tag tag;
    const size_t after = ParseTag(html, lt, &tag);
    if (after == std::string_view::npos) {
      break;
    }
    pos = after;
    if (tag.name == "a") {
      in_anchor = true;
      anchor_visible = false;
      anchor = tag.Attr("href");
    } else if (tag.name == "/a" && in_anchor) {
      in_anchor = false;
      if (!anchor.empty()) {
        (anchor_visible ? scan.links : scan.hidden_links).push_back(anchor);
      }
    } else if (tag.name == "img") {
      // A 1x1 image is the only content a hidden link has.
      if (in_anchor && tag.Attr("width") != "1") {
        anchor_visible = true;
      }
      scan.images.emplace_back(tag.Attr("src"));
    } else if (tag.name == "link" && tag.Attr("rel") == "stylesheet") {
      scan.stylesheets.emplace_back(tag.Attr("href"));
    } else if (tag.name == "script") {
      const size_t end = html.find("</script>", pos);
      if (!tag.Attr("src").empty()) {
        scan.scripts.emplace_back(tag.Attr("src"));
      } else {
        scan.inline_scripts.emplace_back(html.substr(pos, end - pos));
      }
      pos = end == std::string_view::npos ? html.size() : end;
    } else if (tag.name == "body") {
      scan.onmousemove = tag.Attr("onmousemove");
    }
  }
  return scan;
}

double ThreadCpuS() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

// The reference unit's page: fixed markup of the shapes ScanPage meets on
// the site (paragraphs, links, images, stylesheets, scripts), built from a
// constant seed and nothing else.
const std::string& ReferencePage() {
  static const std::string kPage = [] {
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::string html =
        "<html><head><title>reference</title>"
        "<link rel=\"stylesheet\" href=\"/style.css\"></head><body>\n";
    for (int i = 0; i < 12; ++i) {
      const std::string n = std::to_string(next() % 1000);
      const char* const kParts[4][3] = {
          {"<p>Lorem ipsum dolor sit amet, consectetur adipiscing elit ", n.c_str(), ".</p>\n"},
          {"<a href=\"http://www.example.com/page/", n.c_str(), ".html\">a page</a>\n"},
          {"<img src=\"/img/", n.c_str(), ".gif\" width=\"32\" height=\"32\" alt=\"i\">\n"},
          {"<script>var v = ", n.c_str(), ";</script>\n"},
      };
      for (const char* part : kParts[next() % 4]) {
        html += part;
      }
    }
    return html + "</body></html>\n";
  }();
  return kPage;
}

// The browse mix, from the simulator's PopulationMix defaults
// (src/sim/population.h), which are calibrated to CoDeeN's observed
// Table-1 fractions. Its weights sum to 100.95. Humans weigh 23.4; 5% of
// them use text browsers and 4.2% of the rest disable JS, which makes
// 21.30 JS humans and 2.10 humans without JS. Robots that follow every
// link (crawler, polite crawler, email harvester, link checker, off-line
// browser: 1.35) are crawlers here. The rest, which fetch pages without
// their probes (referrer and bulletin spammers, click fraud, vulnerability
// scanners, the three smart bots: 76.2), are scrapers. Per 200
// visitors that is 42 / 4 / 3 / 151.
constexpr uint64_t kRotation = 200;
constexpr uint64_t kJsHumans = 42;
constexpr uint64_t kNoJsHumans = 4;
constexpr uint64_t kCrawlers = 3;
// PopulationMix's human_min_pages, human_max_pages and human_mouse_prob
// (per page view).
constexpr int kHumanMinPages = 4;
constexpr int kHumanMaxPages = 26;
constexpr double kHumanMouseProb = 0.55;

// A browse-mix visitor: one session, one keep-alive connection, one
// request at a time, as a browser fetching a page's objects in turn.
class BrowseVisitor : public Visitor {
 public:
  enum class Kind { kJsHuman, kNoJsHuman, kCrawler, kScraper };

  // `pages`: how many pages a human reads; see MakeVisitors.
  BrowseVisitor(Kind kind, Rng rng, std::string ip, int pages)
      : kind_(kind), rng_(std::move(rng)), ip_(std::move(ip)) {
    const auto& agents =
        kind_ == Kind::kJsHuman || kind_ == Kind::kNoJsHuman ? BrowserAgents() : RobotAgents();
    agent_ = agents[rng_.UniformU64(agents.size())];
    // Crawlers take one page and then every link on it; scrapers read 2-4
    // pages. Humans and scrapers follow links a human could see.
    switch (kind_) {
      case Kind::kCrawler:
        pages_left_ = 1;
        break;
      case Kind::kJsHuman:
      case Kind::kNoJsHuman:
        pages_left_ = pages;
        break;
      case Kind::kScraper:
        pages_left_ = static_cast<int>(rng_.UniformInt(2, 4));
        break;
    }
    const int entry = static_cast<int>(rng_.UniformU64(kSitePages));
    QueuePage(robodet::SiteModel::PagePath(static_cast<robodet::PageId>(entry)), "");
  }

  std::vector<Fetch> NextBatch() override {
    if (queue_.empty() && !handler_pending_) {
      return {};
    }
    if (queue_.empty()) {
      RunMouseHandler();
      if (queue_.empty()) {
        return {};
      }
    }
    std::vector<Fetch> batch;
    batch.push_back(std::move(queue_.front()));
    queue_.erase(queue_.begin());
    return batch;
  }

  void OnResponse(const Fetch& fetch, int status, std::string_view body) override {
    if (status != 200) {
      return;
    }
    if (fetch.signal == Signal::kPage && parse_pending_) {
      OnPage(fetch.target, body);
    } else if (fetch.signal == Signal::kJsFile && interp_ != nullptr) {
      interp_->Run(body);
    }
  }

 private:
  Fetch Make(std::string target, Signal signal, std::string referer) const {
    Fetch fetch;
    fetch.target = std::move(target);
    fetch.client_ip = ip_;
    fetch.user_agent = agent_;
    fetch.referer = std::move(referer);
    fetch.signal = signal;
    fetch.starts_view = signal == Signal::kPage;
    return fetch;
  }

  void QueuePage(std::string target, std::string referer) {
    --pages_left_;
    parse_pending_ = true;
    queue_.push_back(Make(std::move(target), Signal::kPage, std::move(referer)));
  }

  // The final fetch closes the connection. Only decidable once nothing can
  // follow it: no page left to read and no mouse handler still to run.
  void MarkLastIfFinal() {
    if (pages_left_ == 0 && !parse_pending_ && !handler_pending_ && !queue_.empty()) {
      queue_.back().last = true;
    }
  }

  // Pages the visitor reads; a crawler's link fetches are not read.
  void OnPage(const std::string& target, std::string_view body) {
    parse_pending_ = false;
    const std::string referer = "http://" + std::string(kSiteHost) + target;
    const PageScan scan = ScanPage(body);
    switch (kind_) {
      case Kind::kJsHuman: {
        interp_ = std::make_unique<robodet::JsInterpreter>(
            robodet::JsInterpreter::Config{agent_, 200000});
        // The inline UA-echo script writes its stylesheet link.
        for (const std::string& code : scan.inline_scripts) {
          interp_->Run(code);
        }
        for (const std::string& href : scan.scripts) {
          if (const std::string t = TargetOf(href); IsInstr(t, "js_")) {
            queue_.push_back(Make(t, Signal::kJsFile, referer));
          }
        }
        QueueProbes(scan, referer);
        for (const std::string& written : interp_->document_writes()) {
          for (const std::string& href : ScanPage(written).stylesheets) {
            if (const std::string t = TargetOf(href); IsInstr(t, "ua_")) {
              queue_.push_back(Make(t, Signal::kUaEcho, referer));
            }
          }
        }
        handler_ = scan.onmousemove;
        // The user moves the mouse on some page views only.
        handler_pending_ = !handler_.empty() && rng_.Bernoulli(kHumanMouseProb);
        page_referer_ = referer;
        break;
      }
      case Kind::kNoJsHuman:
        QueueProbes(scan, referer);
        break;
      case Kind::kCrawler:
        for (const std::string& href : scan.links) {
          if (const std::string t = TargetOf(href); !t.empty()) {
            queue_.push_back(Make(t, Signal::kPage, referer));
          }
        }
        for (const std::string& href : scan.hidden_links) {
          if (const std::string t = TargetOf(href); IsInstr(t, "hl_")) {
            queue_.push_back(Make(t, Signal::kHiddenLink, referer));
          }
        }
        break;
      case Kind::kScraper:
        // A lexical guess at a beacon URL: never a key the daemon issued.
        queue_.push_back(Make(std::string(kInstrPrefix) + "bk_" + HexToken(rng_, 32) + ".jpg",
                              Signal::kBeaconWrong, referer));
        break;
    }
    if (pages_left_ > 0 && !scan.links.empty()) {
      next_page_ = TargetOf(scan.links[rng_.UniformU64(scan.links.size())]);
      next_referer_ = referer;
    } else {
      pages_left_ = 0;
    }
    if (!handler_pending_) {
      QueueNextPage();
    }
    MarkLastIfFinal();
  }

  // CSS probe and transparent image: what any rendering browser fetches.
  void QueueProbes(const PageScan& scan, const std::string& referer) {
    for (const std::string& href : scan.stylesheets) {
      if (const std::string t = TargetOf(href); IsInstr(t, "cp_")) {
        queue_.push_back(Make(t, Signal::kCss, referer));
      }
    }
    for (const std::string& src : scan.images) {
      if (const std::string t = TargetOf(src); IsInstr(t, "ti.jpg")) {
        queue_.push_back(Make(t, Signal::kNone, referer));
      }
    }
  }

  void QueueNextPage() {
    if (pages_left_ > 0 && !next_page_.empty()) {
      QueuePage(std::move(next_page_), std::move(next_referer_));
      next_page_.clear();
    }
  }

  // The user moves the mouse once the page's objects are in: the served
  // handler fetches the beacon with the real key.
  void RunMouseHandler() {
    handler_pending_ = false;
    interp_->ClearObservations();
    interp_->RunHandler(handler_);
    for (const std::string& url : interp_->fetched_urls()) {
      if (const std::string t = TargetOf(url); IsInstr(t, "bk_")) {
        queue_.push_back(Make(t, Signal::kBeaconOk, page_referer_));
      }
    }
    QueueNextPage();
    MarkLastIfFinal();
  }

  Kind kind_;
  Rng rng_;
  std::string ip_;
  std::string agent_;
  int pages_left_ = 0;
  bool parse_pending_ = false;
  std::vector<Fetch> queue_;
  std::unique_ptr<robodet::JsInterpreter> interp_;
  std::string handler_;
  bool handler_pending_ = false;
  std::string page_referer_;
  std::string next_page_;
  std::string next_referer_;
};

// A spoofed-address flood connection: kFloodBatch tiny probe-namespace
// requests pipelined at once, each from a fresh address.
constexpr int kFloodBatch = 16;

class FloodVisitor : public Visitor {
 public:
  FloodVisitor(uint64_t seed, uint64_t index, int space) {
    Rng rng(robodet::HashCombine(seed, index));
    // Forged tokens must not pass the daemon's MAC check by accident.
    const robodet::TokenMinter minter(robodet::ProxyConfig{}.secret, nullptr);
    auto forged = [&] {
      std::string token;
      do {
        token = HexToken(rng, 24);
      } while (minter.Validate(token));
      return token;
    };
    const std::string prefix(kInstrPrefix);
    for (int j = 0; j < kFloodBatch; ++j) {
      Fetch fetch;
      fetch.client_ip = Address(space, seed, index * kFloodBatch + j);
      fetch.user_agent = RobotAgents()[rng.UniformU64(RobotAgents().size())];
      const uint64_t pick = rng.UniformU64(10);
      if (pick < 4) {
        fetch.target = prefix + "bk_" + HexToken(rng, 32) + ".jpg";
        fetch.signal = Signal::kBeaconWrong;
      } else if (pick < 6) {
        fetch.target = prefix + "ti.jpg";
      } else if (pick == 6) {
        fetch.target = prefix + "js_" + forged() + ".js";
        fetch.expect_status = 404;
      } else if (pick == 7) {
        fetch.target = prefix + "cp_" + forged() + ".css";
        fetch.expect_status = 404;
      } else if (pick == 8) {
        fetch.target = prefix + "ua_" + forged() + "_wget-1.10.2.css";
      } else {
        fetch.target = prefix + "hl_" + forged() + ".html";
      }
      batch_.push_back(std::move(fetch));
    }
    batch_.back().last = true;
  }

  std::vector<Fetch> NextBatch() override { return std::move(batch_); }
  void OnResponse(const Fetch&, int, std::string_view) override {}

 private:
  std::vector<Fetch> batch_;
};

}  // namespace

const char* SignalName(Signal signal) {
  switch (signal) {
    case Signal::kNone:
      return "none";
    case Signal::kPage:
      return "page";
    case Signal::kCss:
      return "css";
    case Signal::kJsFile:
      return "js_file";
    case Signal::kUaEcho:
      return "ua_echo";
    case Signal::kHiddenLink:
      return "hidden_link";
    case Signal::kBeaconOk:
      return "beacon_ok";
    case Signal::kBeaconWrong:
      return "beacon_wrong_key";
    case Signal::kCount:
      break;
  }
  return "?";
}

double RunReferenceUnit() {
  const double t0 = ThreadCpuS();
  const PageScan scan = ScanPage(ReferencePage());
  // Keeps the scan from being optimized away.
  static thread_local size_t sink = 0;
  sink += scan.links.size() + scan.images.size() + scan.inline_scripts.size();
  return ThreadCpuS() - t0;
}

std::string RenderRequest(const Fetch& fetch) {
  std::string out;
  out.reserve(160 + fetch.target.size() + fetch.referer.size());
  out += "GET ";
  out += fetch.target;
  out += " HTTP/1.1\r\nHost: ";
  out += kSiteHost;
  out += "\r\nUser-Agent: ";
  out += fetch.user_agent;
  out += "\r\nX-Forwarded-For: ";
  out += fetch.client_ip;
  if (!fetch.referer.empty()) {
    out += "\r\nReferer: ";
    out += fetch.referer;
  }
  if (fetch.last) {
    out += "\r\nConnection: close";
  }
  out += "\r\n\r\n";
  return out;
}

bool ParseMix(std::string_view name, Mix* mix) {
  if (name == "browse") {
    *mix = Mix::kBrowse;
  } else if (name == "flood") {
    *mix = Mix::kFlood;
  } else {
    return false;
  }
  return true;
}

std::vector<std::unique_ptr<Visitor>> MakeVisitors(Mix mix, uint64_t seed, uint64_t count,
                                                   int address_space) {
  std::vector<std::unique_ptr<Visitor>> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (mix == Mix::kFlood) {
      out.push_back(std::make_unique<FloodVisitor>(seed, i, address_space));
      continue;
    }
    Rng rng(robodet::HashCombine(seed, i));
    // Dealt in a fixed rotation (7 is prime to kRotation), so every seed
    // and every kRotation visitors in a row have exactly the mix. The
    // humans of a rotation also read page counts spread evenly over
    // PopulationMix's human_min_pages..human_max_pages (4-26), so every
    // seed offers the same load: at a fixed arrival rate, the open loop's
    // latency quantiles shift with the requests per visitor.
    const uint64_t pick = (i * 7) % kRotation;
    auto spread = [](uint64_t rank, uint64_t count) {
      return kHumanMinPages + static_cast<int>((rank * (kHumanMaxPages - kHumanMinPages) +
                                                (count - 1) / 2) /
                                               (count - 1));
    };
    BrowseVisitor::Kind kind = BrowseVisitor::Kind::kScraper;
    int pages = 0;
    if (pick < kJsHumans) {
      kind = BrowseVisitor::Kind::kJsHuman;
      pages = spread(pick, kJsHumans);
    } else if (pick < kJsHumans + kNoJsHumans) {
      kind = BrowseVisitor::Kind::kNoJsHuman;
      pages = spread(pick - kJsHumans, kNoJsHumans);
    } else if (pick < kJsHumans + kNoJsHumans + kCrawlers) {
      kind = BrowseVisitor::Kind::kCrawler;
    }
    out.push_back(std::make_unique<BrowseVisitor>(kind, std::move(rng),
                                                  Address(address_space, seed, i), pages));
  }
  return out;
}

}  // namespace perfbench
