// Read-side view of an HTML document: the links a visitor could follow and
// the objects a rendering browser would fetch. Both the simulated clients
// (to decide what to request next) and tests use this.
#ifndef ROBODET_SRC_HTML_DOCUMENT_H_
#define ROBODET_SRC_HTML_DOCUMENT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/html/tokenizer.h"

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

// The URLs of a page's links and embedded objects, as views into its bytes;
// valid only while those bytes are.
struct ServedRefs {
  // The hrefs HtmlDocument::Links() returns, in document order.
  std::vector<std::string_view> links;
  // The urls HtmlDocument::EmbeddedObjects() returns, in document order.
  std::vector<std::string_view> embeds;
};

// Collects both lists in one zero-copy scan of `html`, by HtmlDocument's
// rules (case-insensitive names, first matching attribute, raw values),
// without materializing tokens. The proxy records every page it serves
// this way.
ServedRefs CollectServedRefs(std::string_view html);

class HtmlDocument {
 public:
  explicit HtmlDocument(std::string_view html);

  // All <a href> links, with hidden-ness computed from anchor content.
  std::vector<LinkRef> Links() const;

  // Links a sighted human could click (hidden excluded).
  std::vector<LinkRef> VisibleLinks() const;

  // Objects a rendering browser fetches automatically: <img src>,
  // <link rel=stylesheet href>, <script src>, <bgsound/audio src>,
  // <iframe/frame src>.
  std::vector<EmbedRef> EmbeddedObjects() const;

  // Concatenated contents of inline <script> elements (no src attribute).
  std::vector<std::string> InlineScripts() const;

  // Attribute value of the first <body> tag's event handler, if any
  // (e.g. Attr("onmousemove")).
  std::string BodyEventHandler(std::string_view event) const;

 private:
  std::vector<HtmlToken> tokens_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_HTML_DOCUMENT_H_
