// Read-side view of an HTML document: the links a visitor could follow and
// the objects a rendering browser would fetch. The simulated clients read
// every page they fetch this way, and the proxy records what it served by
// the same rules (CollectServedRefs, or InstrumentHtml's own walk).
#ifndef ROBODET_SRC_HTML_DOCUMENT_H_
#define ROBODET_SRC_HTML_DOCUMENT_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace robodet {

struct LinkRef {
  std::string href;
  // True when the anchor's only content is 1x1 transparent imagery (the
  // paper's hidden-link trap). Humans cannot see these; crawlers that
  // blindly follow every <a href> will fetch them.
  bool hidden = false;
  // The onclick attribute if present (the paper's alternative beacon hook).
  std::string onclick;
};

struct EmbedRef {
  enum class Kind { kImage, kCss, kScript, kAudio, kFrame };
  Kind kind = Kind::kImage;
  std::string url;
};

// A [offset, offset + size) span of a page's bytes. Spans, unlike views,
// stay valid when the string holding the page is moved.
struct HtmlSpan {
  size_t offset = 0;
  size_t size = 0;

  std::string_view In(std::string_view html) const { return html.substr(offset, size); }
  bool operator==(const HtmlSpan&) const = default;
};

// The URLs of a page's links and embedded objects, as spans of its bytes.
struct ServedRefs {
  // The hrefs HtmlDocument::Links() returns, in document order.
  std::vector<HtmlSpan> links;
  // The urls HtmlDocument::EmbeddedObjects() returns, in document order.
  std::vector<HtmlSpan> embeds;

  bool operator==(const ServedRefs&) const = default;
};

// A start tag that carries a served ref, and the attribute that holds its
// URL: <a href> is a link; every other tag is an embed a rendering browser
// fetches, and <link> is one only with rel=stylesheet.
struct RefTag {
  std::string_view tag;
  std::string_view url_attr;
  std::optional<EmbedRef::Kind> embed;  // nullopt: the tag is a link.
  std::string_view rel;                 // The rel value the tag needs; "" for any.

  // Whether a tag that has (or lacks) a url_attr attribute, and has this
  // first rel value, carries a ref.
  bool Carries(bool has_url, std::optional<std::string_view> rel_value) const;
};

// The RefTag of start tag `name` (any case), or nullptr. Constant-time: a
// rewriter asks it of every tag it scans.
const RefTag* RefTagFor(std::string_view name);

// Collects both lists in one zero-copy scan of `html`, by HtmlDocument's
// rules (case-insensitive names, first matching attribute, raw values).
// The proxy records every uninstrumented page it serves this way;
// InstrumentHtml returns the same lists for the pages it rewrites.
ServedRefs CollectServedRefs(std::string_view html);

// What a visitor reads off a page: its links, the objects a rendering
// browser fetches, its inline scripts and its mouse handler. The
// constructor reads the page in one walk of HtmlTokenStream and keeps only
// those answers (it holds no view into `html`). The accessors return
// references into the document, so they are deleted on a temporary.
class HtmlDocument {
 public:
  explicit HtmlDocument(std::string_view html);

  // All <a href> links in document order. An anchor's content, for its
  // hidden-ness, is every token up to the next </a>.
  const std::vector<LinkRef>& Links() const& { return links_; }
  const std::vector<LinkRef>& Links() const&& = delete;

  // Links a sighted human could click (hidden excluded).
  std::vector<LinkRef> VisibleLinks() const;

  // Objects a rendering browser fetches automatically: <img src>,
  // <link rel=stylesheet href>, <script src>, <bgsound/audio src>,
  // <iframe/frame src>.
  const std::vector<EmbedRef>& EmbeddedObjects() const& { return embeds_; }
  const std::vector<EmbedRef>& EmbeddedObjects() const&& = delete;

  // Contents of each inline <script> element (no src attribute).
  const std::vector<std::string>& InlineScripts() const& { return inline_scripts_; }
  const std::vector<std::string>& InlineScripts() const&& = delete;

  // The onmousemove attribute of the first <body> tag, or "" (Figure 1's
  // handler hook).
  const std::string& BodyEventHandler() const& { return body_handler_; }
  const std::string& BodyEventHandler() const&& = delete;

 private:
  std::vector<LinkRef> links_;
  std::vector<EmbedRef> embeds_;
  std::vector<std::string> inline_scripts_;
  std::string body_handler_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_HTML_DOCUMENT_H_
