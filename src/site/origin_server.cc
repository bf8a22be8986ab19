#include "src/site/origin_server.h"

#include "src/html/tokenizer.h"
#include "src/util/hash.h"
#include "src/util/strings.h"

namespace robodet {
namespace {

// Deterministic filler body whose size is a stable function of the path,
// so repeated fetches agree and bandwidth accounting is reproducible.
std::string FillerBody(const std::string& path, size_t lo, size_t hi) {
  const uint64_t h = Fnv1a(path);
  const size_t size = lo + static_cast<size_t>(h % (hi - lo));
  return std::string(size, 'x');
}

}  // namespace

Response OriginServer::Handle(const Request& request) {
  const std::string& path = request.url.path();

  // Bulletin board: a page of recent posts plus a POST endpoint.
  if (path == SiteModel::BoardPath() || path == SiteModel::BoardPostPath()) {
    return HandleBoard(request);
  }

  // Pages.
  if (const auto page = site_->FindPage(path); page.has_value()) {
    Response r = MakeHtmlResponse(site_->RenderPage(*page));
    if (request.method == Method::kHead) {
      r.body.clear();
    }
    return r;
  }

  // CGI: /cgi-bin/appN.cgi?... — a fraction of hits redirect (e.g. to a
  // results page), driving the 3xx feature.
  if (ContainsIgnoreCase(path, "/cgi-bin/")) {
    const uint64_t h = HashCombine(Fnv1a(path), Fnv1a(request.url.query()));
    if (h % 100 < 25 && site_->page_count() > 0) {
      return MakeRedirect(
          Url::Make(site_->host(), SiteModel::PagePath(static_cast<PageId>(
                                       h % site_->page_count()))));
    }
    return MakeHtmlResponse("<html><body><h1>Results</h1><p>query=" + request.url.query() +
                            "</p></body></html>");
  }

  // Static assets.
  if (path == site_->css_path()) {
    return MakeResponse(StatusCode::kOk, ResourceKind::kCss, FillerBody(path, 800, 4000));
  }
  if (path == site_->js_path()) {
    return MakeResponse(StatusCode::kOk, ResourceKind::kJavaScript,
                        FillerBody(path, 1000, 8000));
  }
  if (path == "/favicon.ico") {
    return MakeResponse(StatusCode::kOk, ResourceKind::kFavicon, FillerBody(path, 300, 1500));
  }
  if (path == "/robots.txt") {
    return MakeResponse(StatusCode::kOk, ResourceKind::kRobotsTxt,
                        "User-agent: *\nDisallow: /cgi-bin/\n");
  }
  if (site_->IsKnownImage(path)) {
    // Media dominates real web bandwidth; sizing images realistically is
    // what keeps the instrumentation overhead fraction meaningful (§3.2).
    return MakeResponse(StatusCode::kOk, ResourceKind::kImage, FillerBody(path, 8000, 60000));
  }

  return MakeResponse(StatusCode::kNotFound, ResourceKind::kHtml,
                      "<html><body>Not found: " + path + "</body></html>");
}

OriginResult OriginServer::HandleOrigin(const Request& request) {
  // Service times well under ResilienceConfig defaults, so a healthy origin
  // never trips the slow-origin rung on its own.
  TimeMs latency = 2;
  switch (request.Kind()) {
    case ResourceKind::kCgi:
      latency = 12;
      break;
    case ResourceKind::kHtml:
      latency = 6;
      break;
    default:
      latency = 2;
      break;
  }
  return OriginResult::Ok(Handle(request), latency);
}

Response OriginServer::HandleBoard(const Request& request) {
  if (request.url.path() == SiteModel::BoardPostPath()) {
    if (request.method != Method::kPost || request.body.empty()) {
      return MakeResponse(StatusCode::kBadRequest, ResourceKind::kHtml,
                          "<html><body>POST a message body.</body></html>");
    }
    board_posts_.push_back(request.body.substr(0, 512));
    if (board_posts_.size() > 100) {
      board_posts_.erase(board_posts_.begin());
    }
    return MakeRedirect(Url::Make(site_->host(), SiteModel::BoardPath()));
  }
  // Render the board page: recent posts (escaped) + the post form.
  std::string html = "<html><head><title>Board</title></head><body><h1>Board</h1>\n";
  for (auto it = board_posts_.rbegin(); it != board_posts_.rend(); ++it) {
    std::string escaped = ReplaceAll(*it, "<", "&lt;");
    escaped = ReplaceAll(escaped, ">", "&gt;");
    html += "<p class=\"post\">" + escaped + "</p>\n";
  }
  html += "<form method=\"post\" action=\"" + SiteModel::BoardPostPath() +
          "\"><input name=\"msg\"></form>\n";
  html += "<a href=\"" + SiteModel::PagePath(0) + "\">Home</a>\n";
  html += "</body></html>\n";
  return MakeHtmlResponse(std::move(html));
}

}  // namespace robodet
