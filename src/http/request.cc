#include "src/http/request.h"

#include "src/util/strings.h"

namespace robodet {

std::optional<IpAddress> IpAddress::Parse(std::string_view dotted) {
  const std::vector<std::string> parts = Split(dotted, '.');
  if (parts.size() != 4) {
    return std::nullopt;
  }
  uint32_t v = 0;
  for (const std::string& p : parts) {
    const auto octet = ParseU64(p);
    if (!octet.has_value() || *octet > 255) {
      return std::nullopt;
    }
    v = (v << 8) | static_cast<uint32_t>(*octet);
  }
  return IpAddress(v);
}

bool Response::IsHtml() const {
  return ContainsIgnoreCase(ContentType(), "text/html");
}

std::optional<Url> Response::RedirectTarget(const Url& base) const {
  if (!Is3xx(status)) {
    return std::nullopt;
  }
  const auto loc = headers.Get("Location");
  if (!loc.has_value() || loc->empty()) {
    return std::nullopt;
  }
  return base.Resolve(*loc);
}

size_t Response::WireSize() const {
  // "HTTP/1.1 NNN Reason\r\n" + headers + "\r\n" + body
  return 13 + ReasonPhrase(status).size() + headers.WireSize() + 2 + body.size();
}

Response MakeHtmlResponse(std::string body) {
  return MakeResponse(StatusCode::kOk, ResourceKind::kHtml, std::move(body));
}

Response MakeResponse(StatusCode status, ResourceKind kind, std::string body) {
  Response r;
  r.status = status;
  r.headers.Set("Content-Type", MimeTypeFor(kind));
  r.headers.Set("Content-Length", std::to_string(body.size()));
  r.body = std::move(body);
  return r;
}

Response MakeRedirect(const Url& target, StatusCode status) {
  Response r;
  r.status = status;
  r.headers.Set("Location", target.ToString());
  r.headers.Set("Content-Type", "text/html");
  r.body = "<html><body>Moved</body></html>";
  r.headers.Set("Content-Length", std::to_string(r.body.size()));
  return r;
}

}  // namespace robodet
