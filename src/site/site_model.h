// Synthetic website model. Stands in for the origin servers behind CoDeeN:
// a graph of HTML pages with embedded images/CSS/JS, CGI endpoints,
// redirects and a controlled fraction of broken links. Page popularity is
// Zipf-distributed, matching web-traffic folklore, so human click streams
// concentrate on popular pages while exhaustive crawlers visit the tail.
#ifndef ROBODET_SRC_SITE_SITE_MODEL_H_
#define ROBODET_SRC_SITE_SITE_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace robodet {

using PageId = uint32_t;

struct SitePage {
  PageId id = 0;
  std::string path;                 // "/p/123.html"
  std::vector<PageId> links;        // Outgoing visible links.
  std::vector<std::string> images;  // Embedded image paths.
  bool has_css = true;              // Links the site stylesheet.
  bool has_js = true;               // Links the site script.
  std::vector<std::string> cgi_links;  // Visible links to CGI endpoints.
  bool broken_link = false;            // Page also links one 404 target.
  std::string broken_path;
  size_t text_bytes = 2048;  // Filler prose volume.
};

struct SiteConfig {
  std::string host = "www.example.com";
  size_t num_pages = 200;
};

class SiteModel {
 public:
  // Deterministically generates a site from the config and seed.
  static SiteModel Generate(const SiteConfig& config, Rng& rng);

  const std::string& host() const { return config_.host; }
  size_t page_count() const { return pages_.size(); }
  const SitePage& page(PageId id) const { return pages_[id]; }

  // CGI endpoints are numbered [0, kNumCgiEndpoints).
  static constexpr size_t kNumCgiEndpoints = 20;

  // Path helpers.
  static std::string PagePath(PageId id);
  std::string CgiPath(size_t endpoint) const;
  // The bulletin board (§1 use case: "spamming bulletin boards").
  static std::string BoardPath() { return "/board/index.html"; }
  static std::string BoardPostPath() { return "/cgi-bin/board.cgi"; }
  const std::string& css_path() const { return css_path_; }
  const std::string& js_path() const { return js_path_; }

  // Maps a request path to a page, if it is one.
  std::optional<PageId> FindPage(const std::string& path) const;

  // True if `path` is one of this site's shared images or a page image.
  bool IsKnownImage(const std::string& path) const;

  // Popularity-weighted entry page (humans land on popular pages).
  PageId SampleEntryPage(Rng& rng) const;

  // Renders a page's HTML (pre-instrumentation).
  std::string RenderPage(PageId id) const;

 private:
  SiteConfig config_;
  std::vector<SitePage> pages_;
  std::vector<std::string> shared_images_;
  std::string css_path_ = "/static/site.css";
  std::string js_path_ = "/static/site.js";
};

}  // namespace robodet

#endif  // ROBODET_SRC_SITE_SITE_MODEL_H_
