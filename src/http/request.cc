#include "src/http/request.h"

#include "src/util/strings.h"

namespace robodet {

std::optional<IpAddress> IpAddress::Parse(std::string_view dotted) {
  uint32_t v = 0;
  size_t i = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (i >= dotted.size() || dotted[i] != '.') {
        return std::nullopt;
      }
      ++i;
    }
    const size_t start = i;
    uint32_t value = 0;
    for (; i < dotted.size() && dotted[i] >= '0' && dotted[i] <= '9'; ++i) {
      value = value * 10 + static_cast<uint32_t>(dotted[i] - '0');
      if (value > 255) {
        return std::nullopt;
      }
    }
    if (i == start) {
      return std::nullopt;  // Empty octet, or one that is not a number.
    }
    v = (v << 8) | value;
  }
  if (i != dotted.size()) {
    return std::nullopt;  // A fifth part, or trailing bytes.
  }
  return IpAddress(v);
}

std::optional<IpAddress> IpAddress::ParseForwardedFor(std::string_view x_forwarded_for) {
  return Parse(TrimWhitespace(x_forwarded_for.substr(0, x_forwarded_for.find(','))));
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
  // Its two headers, and the Cache-Control and Connection that serving
  // adds to most responses.
  r.headers.Reserve(4);
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
