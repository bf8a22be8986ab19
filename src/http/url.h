// Minimal URL model: enough of RFC 3986 for http/https origins, paths,
// queries and fragments. The detectors key on path shape (extension, CGI
// query, beacon key suffix), so parsing is exact for those parts.
#ifndef ROBODET_SRC_HTTP_URL_H_
#define ROBODET_SRC_HTTP_URL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace robodet {

class Url {
 public:
  Url() = default;

  // Parses an absolute http(s) URL. Returns nullopt on anything that is not
  // a well-formed absolute URL (the proxy treats those as malformed
  // requests, not as crashes).
  static std::optional<Url> Parse(std::string_view raw);

  // Builds from parts; path must begin with '/'.
  static Url Make(std::string_view host, std::string_view path, std::string_view query = "");

  const std::string& host() const { return host_; }
  // Always begins with '/'.
  const std::string& path() const { return path_; }
  // Without the leading '?'; empty if absent.
  const std::string& query() const { return query_; }

  bool has_query() const { return has_query_; }

  // Lowercased final extension of the last path segment, without the dot;
  // empty if none ("/a/b.HTML" -> "html", "/a/b" -> "").
  std::string Extension() const;

  // Last path segment ("/a/b.css" -> "b.css", "/" -> "").
  std::string_view Filename() const;

  // Canonical string form; omits default ports.
  std::string ToString() const;

  // Resolves `ref` against this URL: absolute URLs pass through, "/x" is
  // host-relative, "x" is resolved against this URL's directory. Fragments
  // and queries in `ref` are honored.
  Url Resolve(std::string_view ref) const;

  friend bool operator==(const Url& a, const Url& b) {
    return a.scheme_ == b.scheme_ && a.host_ == b.host_ && a.port_ == b.port_ &&
           a.path_ == b.path_ && a.query_ == b.query_ && a.has_query_ == b.has_query_ &&
           a.fragment_ == b.fragment_;
  }

 private:
  std::string scheme_ = "http";
  std::string host_;
  uint16_t port_ = 80;
  std::string path_ = "/";
  std::string query_;
  bool has_query_ = false;
  std::string fragment_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_HTTP_URL_H_
