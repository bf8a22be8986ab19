// HTTP request/response records as the proxy sees them. These are value
// types: the simulator builds them, the proxy rewrites and annotates them,
// the detectors and feature extractors only read them.
#ifndef ROBODET_SRC_HTTP_REQUEST_H_
#define ROBODET_SRC_HTTP_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/http/content_type.h"
#include "src/http/headers.h"
#include "src/http/method.h"
#include "src/http/status.h"
#include "src/http/url.h"
#include "src/util/clock.h"

namespace robodet {

// IPv4 address; a value type parsed from the dotted form.
class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr explicit IpAddress(uint32_t v) : value_(v) {}

  // Four dot-separated decimal octets, each 0-255; leading zeros are
  // allowed at any length. Parsed in place, with no allocation.
  static std::optional<IpAddress> Parse(std::string_view dotted);
  // The client an X-Forwarded-For value names: its first comma-separated
  // element, surrounding whitespace trimmed.
  static std::optional<IpAddress> ParseForwardedFor(std::string_view x_forwarded_for);

  constexpr uint32_t value() const { return value_; }

  friend constexpr bool operator==(IpAddress a, IpAddress b) { return a.value_ == b.value_; }
  friend constexpr auto operator<=>(IpAddress a, IpAddress b) { return a.value_ <=> b.value_; }

 private:
  uint32_t value_ = 0;
};

struct Request {
  TimeMs time = 0;
  IpAddress client_ip;
  Method method = Method::kGet;
  Url url;
  Headers headers;
  // Request body (POST forms); empty for bodyless methods.
  std::string body;

  std::string_view UserAgent() const {
    return headers.Get("User-Agent").value_or(std::string_view());
  }
  std::string_view Referrer() const {
    return headers.Get("Referer").value_or(std::string_view());
  }
  bool HasReferrer() const { return headers.Has("Referer"); }

  ResourceKind Kind() const { return ClassifyUrl(url); }
};

struct Response {
  StatusCode status = StatusCode::kOk;
  Headers headers;
  std::string body;

  std::string_view ContentType() const {
    return headers.Get("Content-Type").value_or(std::string_view());
  }
  bool IsHtml() const;

  // For 3xx responses, the Location target if present.
  std::optional<Url> RedirectTarget(const Url& base) const;

  // Approximate bytes on the wire: status line + headers + CRLF + body.
  size_t WireSize() const;
};

// Convenience factories used throughout the origin server and tests.
Response MakeHtmlResponse(std::string body);
Response MakeResponse(StatusCode status, ResourceKind kind, std::string body);
Response MakeRedirect(const Url& target, StatusCode status = StatusCode::kFound);

}  // namespace robodet

#endif  // ROBODET_SRC_HTTP_REQUEST_H_
