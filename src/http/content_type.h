// Resource-kind classification. Table 2's features ("% of HTML requests",
// "% of Image requests", "% of CGI requests", "% of favicon.ico requests")
// and the browser tests all key on this taxonomy.
#ifndef ROBODET_SRC_HTTP_CONTENT_TYPE_H_
#define ROBODET_SRC_HTTP_CONTENT_TYPE_H_

#include <cstdint>
#include <string_view>

#include "src/http/url.h"

namespace robodet {

// One byte, so a RequestEvent packs into eight.
enum class ResourceKind : uint8_t {
  kHtml,
  kCss,
  kJavaScript,
  kImage,
  kAudio,
  kFavicon,
  kCgi,
  kRobotsTxt,
  kOther,
};

// Classifies from the URL alone (what a server sees at request time, before
// it has produced a response). Heuristics mirror CoDeeN's: CGI means a
// query string or a /cgi-bin/ or .php/.cgi/.asp path; favicon.ico is its
// own class; extension decides the rest; extension-less paths default to
// HTML, matching how sites serve directory indexes.
ResourceKind ClassifyUrl(const Url& url);

// MIME type the origin server attaches for a kind.
std::string_view MimeTypeFor(ResourceKind k);

// Content sniffer for the resilience layer: does a body that *claims* to be
// HTML plausibly contain markup? Scans the first 256 bytes for a '<'
// followed by a tag-ish character (letter, '!' or '/'). Origins that put
// text/html on binary payloads fail this check, and the proxy then serves
// the body pass-through instead of feeding garbage to the rewriter.
bool LooksLikeHtml(std::string_view body);

}  // namespace robodet

#endif  // ROBODET_SRC_HTTP_CONTENT_TYPE_H_
