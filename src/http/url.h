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
  // Fnv1a(ToString()), hashed from the parts without building the string.
  uint64_t Hash() const;

  // Resolves `ref` against this URL. A ref that starts with a scheme and
  // ':' (RFC 3986 §3.1) is absolute and passes through; one Url cannot
  // hold (not http or https, or malformed) resolves to this URL. "//x" is
  // scheme-relative and takes this URL's scheme, "/x" is host-relative,
  // and "x" is resolved against this URL's directory (RFC 3986 §5.2.2).
  // The result has no fragment. A ref with no path ("", "?q", "#f") keeps
  // this URL's path, and its query unless the ref has one; any other path
  // has its "." and ".." segments removed (§5.2.4).
  Url Resolve(std::string_view ref) const;
  // Fnv1a(Resolve(ref).ToString()), computed from views into this URL and
  // `ref` without building either.
  uint64_t ResolveHash(std::string_view ref) const;

  friend bool operator==(const Url& a, const Url& b) {
    return a.scheme_ == b.scheme_ && a.host_ == b.host_ && a.port_ == b.port_ &&
           a.path_ == b.path_ && a.query_ == b.query_ && a.has_query_ == b.has_query_ &&
           a.fragment_ == b.fragment_;
  }

  // The parts of a URL as views, which parsing, resolving, ToString and the
  // hashes share (defined in url.cc).
  struct Parts;

 private:
  Parts AsParts() const;
  static Url FromParts(const Parts& parts);

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
