#include "src/site/site_model.h"

#include <algorithm>

#include "src/util/strings.h"

namespace robodet {
namespace {

constexpr double kMeanLinksPerPage = 6.0;
constexpr double kMeanImagesPerPage = 4.0;
// Image pool shared across pages.
constexpr size_t kNumSharedImages = 60;
// Popularity skew for link targets and entry pages.
constexpr double kZipfExponent = 0.9;
// Pages that link a CGI endpoint, and pages that carry one dead link.
constexpr double kCgiLinkFraction = 0.3;
constexpr double kBrokenLinkFraction = 0.1;

}  // namespace

SiteModel SiteModel::Generate(const SiteConfig& config, Rng& rng) {
  SiteModel site;
  site.config_ = config;

  site.shared_images_.reserve(kNumSharedImages);
  for (size_t i = 0; i < kNumSharedImages; ++i) {
    site.shared_images_.push_back("/img/i" + std::to_string(i) + ".jpg");
  }

  site.pages_.resize(config.num_pages);
  for (size_t i = 0; i < config.num_pages; ++i) {
    SitePage& page = site.pages_[i];
    page.id = static_cast<PageId>(i);
    page.path = PagePath(page.id);
    page.text_bytes = 6144 + rng.UniformU64(24576);

    // Outgoing links: Zipf-weighted targets so popular pages accumulate
    // in-links, as on real sites.
    const size_t n_links =
        1 + static_cast<size_t>(rng.Exponential(kMeanLinksPerPage - 1.0));
    for (size_t l = 0; l < n_links; ++l) {
      PageId target = static_cast<PageId>(rng.Zipf(config.num_pages, kZipfExponent));
      if (target != page.id) {
        page.links.push_back(target);
      }
    }
    std::sort(page.links.begin(), page.links.end());
    page.links.erase(std::unique(page.links.begin(), page.links.end()), page.links.end());
    if (page.links.empty()) {
      page.links.push_back(static_cast<PageId>((i + 1) % config.num_pages));
    }

    const size_t n_images = static_cast<size_t>(rng.Exponential(kMeanImagesPerPage));
    for (size_t m = 0; m < std::min<size_t>(n_images, 12); ++m) {
      page.images.push_back(
          site.shared_images_[rng.UniformU64(site.shared_images_.size())]);
    }
    std::sort(page.images.begin(), page.images.end());
    page.images.erase(std::unique(page.images.begin(), page.images.end()), page.images.end());

    if (rng.Bernoulli(kCgiLinkFraction)) {
      page.cgi_links.push_back(site.CgiPath(rng.UniformU64(kNumCgiEndpoints)));
    }
    if (rng.Bernoulli(kBrokenLinkFraction)) {
      page.broken_link = true;
      page.broken_path = "/old/gone" + std::to_string(rng.UniformU64(10000)) + ".html";
    }
  }
  return site;
}

std::string SiteModel::PagePath(PageId id) { return "/p/" + std::to_string(id) + ".html"; }

std::string SiteModel::CgiPath(size_t endpoint) const {
  return "/cgi-bin/app" + std::to_string(endpoint) + ".cgi";
}

std::optional<PageId> SiteModel::FindPage(const std::string& path) const {
  // "/p/<id>.html"
  if (path.size() < 9 || path.compare(0, 3, "/p/") != 0 ||
      path.compare(path.size() - 5, 5, ".html") != 0) {
    return std::nullopt;
  }
  const auto id = ParseU64(std::string_view(path).substr(3, path.size() - 8));
  if (!id.has_value() || *id >= pages_.size()) {
    return std::nullopt;
  }
  return static_cast<PageId>(*id);
}

bool SiteModel::IsKnownImage(const std::string& path) const {
  return std::binary_search(shared_images_.begin(), shared_images_.end(), path) ||
         (path.size() > 5 && path.compare(0, 5, "/img/") == 0 &&
          std::find(shared_images_.begin(), shared_images_.end(), path) !=
              shared_images_.end());
}

PageId SiteModel::SampleEntryPage(Rng& rng) const {
  return static_cast<PageId>(rng.Zipf(pages_.size(), kZipfExponent));
}

std::string SiteModel::RenderPage(PageId id) const {
  const SitePage& page = pages_[id];
  std::string html;
  html.reserve(page.text_bytes + 2048);
  html += "<!DOCTYPE html>\n<html>\n<head>\n<title>Page " + std::to_string(id) + "</title>\n";
  if (page.has_css) {
    html += "<link rel=\"stylesheet\" type=\"text/css\" href=\"" + css_path_ + "\">\n";
  }
  if (page.has_js) {
    html += "<script src=\"" + js_path_ + "\"></script>\n";
  }
  html += "</head>\n<body>\n<h1>Page " + std::to_string(id) + "</h1>\n";

  // Filler prose in fixed-size paragraphs.
  size_t remaining = page.text_bytes;
  while (remaining > 0) {
    static constexpr std::string_view kPara =
        "<p>Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do "
        "eiusmod tempor incididunt ut labore et dolore magna aliqua.</p>\n";
    html += kPara;
    remaining = remaining > kPara.size() ? remaining - kPara.size() : 0;
  }

  for (const std::string& img : page.images) {
    html += "<img src=\"" + img + "\" width=\"120\" height=\"80\">\n";
  }
  for (PageId target : page.links) {
    html += "<a href=\"" + PagePath(target) + "\">Go to page " + std::to_string(target) +
            "</a>\n";
  }
  for (const std::string& cgi : page.cgi_links) {
    html += "<a href=\"" + cgi + "?from=" + std::to_string(id) + "\">Search</a>\n";
  }
  if (page.broken_link) {
    html += "<a href=\"" + page.broken_path + "\">Archived content</a>\n";
  }
  html += "</body>\n</html>\n";
  return html;
}

}  // namespace robodet
