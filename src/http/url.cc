#include "src/http/url.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "src/util/hash.h"
#include "src/util/strings.h"

namespace robodet {

// A URL as views: into a Url's members, into parsed text, or both. The
// path is path_head followed by path_tail (a base's directory and a
// relative ref); the host keeps the case it was written in.
struct Url::Parts {
  std::string_view scheme;  // "http" or "https", lowercase.
  std::string_view host;
  uint16_t port = 80;
  std::string_view path_head;
  std::string_view path_tail;
  std::string_view query;
  bool has_query = false;
  std::string_view fragment;
};

namespace {

bool IsValidHostChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '.' ||
         c == '-' || c == '_';
}

char LowerAscii(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c; }

uint16_t DefaultPort(std::string_view scheme) { return scheme == "https" ? 443 : 80; }

// Whether `ref` starts with a scheme and ':' (RFC 3986 §3.1: a letter,
// then letters, digits, '+', '-' or '.').
bool StartsWithScheme(std::string_view ref) {
  auto letter = [](char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); };
  if (ref.empty() || !letter(ref[0])) {
    return false;
  }
  for (size_t i = 1; i < ref.size(); ++i) {
    const char c = ref[i];
    if (c == ':') {
      return true;
    }
    if (!letter(c) && !(c >= '0' && c <= '9') && c != '+' && c != '-' && c != '.') {
      return false;
    }
  }
  return false;
}

// Splits "#fragment" and then "?query" off the end of `rest` into `parts`,
// leaving the path in `rest`.
void SplitQueryAndFragment(std::string_view& rest, Url::Parts& parts) {
  // Fragment first (it binds last in the grammar).
  const size_t hash = rest.find('#');
  if (hash != std::string_view::npos) {
    parts.fragment = rest.substr(hash + 1);
    rest = rest.substr(0, hash);
  }
  const size_t qmark = rest.find('?');
  if (qmark != std::string_view::npos) {
    parts.has_query = true;
    parts.query = rest.substr(qmark + 1);
    rest = rest.substr(0, qmark);
  }
}

// Parses what follows "scheme://" into `parts`, whose scheme and default
// port are set. False on an empty or invalid authority.
bool ParseAfterScheme(std::string_view rest, Url::Parts& parts) {
  const size_t authority_end = rest.find_first_of("/?#");
  std::string_view authority =
      authority_end == std::string_view::npos ? rest : rest.substr(0, authority_end);
  if (authority.empty()) {
    return false;
  }
  const size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    const auto port = ParseU64(authority.substr(colon + 1));
    if (!port.has_value() || *port == 0 || *port > 65535) {
      return false;
    }
    parts.port = static_cast<uint16_t>(*port);
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) {
    return false;
  }
  for (char c : authority) {
    if (!IsValidHostChar(c)) {
      return false;
    }
  }
  parts.host = authority;
  parts.path_head = "/";
  if (authority_end == std::string_view::npos) {
    return true;
  }
  rest = rest.substr(authority_end);
  SplitQueryAndFragment(rest, parts);
  if (!rest.empty()) {
    if (rest[0] != '/') {
      return false;
    }
    parts.path_head = rest;
  }
  return true;
}

// Parses an absolute http(s) URL into `parts`.
bool ParseAbsolute(std::string_view raw, Url::Parts& parts) {
  const size_t scheme_end = raw.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) {
    return false;
  }
  const std::string_view scheme = raw.substr(0, scheme_end);
  if (EqualsIgnoreCase(scheme, "http")) {
    parts.scheme = "http";
  } else if (EqualsIgnoreCase(scheme, "https")) {
    parts.scheme = "https";
  } else {
    return false;
  }
  parts.port = DefaultPort(parts.scheme);
  return ParseAfterScheme(raw.substr(scheme_end + 3), parts);
}

// Writes the canonical form of `parts` into `sink`: the one spelling that
// ToString builds and Hash and ResolveHash hash.
template <typename Sink>
void WriteCanonical(const Url::Parts& parts, Sink& sink) {
  sink.Put(parts.scheme);
  sink.Put("://");
  sink.PutLower(parts.host);
  if (parts.port != DefaultPort(parts.scheme)) {
    char digits[8];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), parts.port);
    sink.Put(":");
    sink.Put(std::string_view(digits, static_cast<size_t>(end - digits)));
  }
  sink.Put(parts.path_head);
  sink.Put(parts.path_tail);
  if (parts.has_query) {
    sink.Put("?");
    sink.Put(parts.query);
  }
  if (!parts.fragment.empty()) {
    sink.Put("#");
    sink.Put(parts.fragment);
  }
}

class StringSink {
 public:
  explicit StringSink(std::string& out) : out_(out) {}
  void Put(std::string_view s) { out_.append(s); }
  void PutLower(std::string_view s) { AppendAsciiLower(out_, s); }

 private:
  std::string& out_;
};

// Fnv1a over everything put, as if the puts were one string.
class HashSink {
 public:
  void Put(std::string_view s) { hash_ = Fnv1a(s, hash_); }
  void PutLower(std::string_view s) {
    for (char c : s) {
      hash_ ^= static_cast<uint8_t>(LowerAscii(c));
      hash_ *= kFnvPrime;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = kFnvOffset;
};

// Whether a segment of the path head+tail may be "." or "..": one that
// starts with '.', after a '/' or at the start of `tail` (which follows a
// head that ends in '/').
bool MayHaveDotSegments(std::string_view head, std::string_view tail) {
  return head.find("/.") != std::string_view::npos || tail.starts_with('.') ||
         tail.find("/.") != std::string_view::npos;
}

// Storage for a path whose dot segments were removed: on the stack for a
// path of up to 1 KiB, so resolving one allocates nothing.
class PathBuffer {
 public:
  // The path head+tail, which starts with '/', with its dot segments
  // removed (RFC 3986 §5.2.4).
  std::string_view RemoveDotSegments(std::string_view head, std::string_view tail) {
    const size_t n = head.size() + tail.size();
    char* buf = inline_;
    if (n > sizeof(inline_)) {
      heap_.resize(n);
      buf = heap_.data();
    }
    std::copy(tail.begin(), tail.end(), std::copy(head.begin(), head.end(), buf));
    // In place: the output, buf[0, out), never passes the input read so
    // far, buf[0, at). Each step takes one "/segment".
    size_t out = 0;
    for (size_t at = 0; at < n;) {
      const auto end = static_cast<size_t>(std::find(buf + at + 1, buf + n, '/') - buf);
      const std::string_view segment(buf + at + 1, end - at - 1);
      const bool dot = segment == ".";
      const bool dot_dot = segment == "..";
      if (dot_dot) {
        // Drops the output's last "/segment".
        while (out > 0 && buf[out - 1] != '/') {
          --out;
        }
        out -= out > 0 ? 1 : 0;
      } else if (!dot) {
        std::memmove(buf + out, buf + at, end - at);
        out += end - at;
      }
      // A path that ends in a dot segment names a directory.
      if (end == n && (dot || dot_dot)) {
        buf[out++] = '/';
      }
      at = end;
    }
    return {buf, out};
  }

 private:
  char inline_[1024];
  std::string heap_;
};

// Resolves `ref` against `base` (RFC 3986 §5.2.2) and drops the fragment.
// A ref with no path keeps the base's path as it is, and its query unless
// the ref has one; every other path has its dot segments removed into
// `buffer`.
Url::Parts ResolveParts(const Url::Parts& base, std::string_view ref, PathBuffer& buffer) {
  Url::Parts out;
  bool parsed = true;
  if (StartsWithScheme(ref)) {
    parsed = ParseAbsolute(ref, out);
  } else if (ref.starts_with("//")) {
    out.scheme = base.scheme;
    out.port = DefaultPort(base.scheme);
    parsed = ParseAfterScheme(ref.substr(2), out);
  } else {
    std::string_view rest = ref;
    Url::Parts split;
    SplitQueryAndFragment(rest, split);
    out = base;
    if (!rest.empty() || split.has_query) {
      out.query = split.query;
      out.has_query = split.has_query;
    }
    if (rest.empty()) {
      out.fragment = {};
      return out;
    }
    if (rest[0] == '/') {
      out.path_head = rest;
    } else {
      out.path_head = base.path_head.substr(0, base.path_head.rfind('/') + 1);
      out.path_tail = rest;
    }
  }
  if (!parsed) {
    out = base;
  } else if (MayHaveDotSegments(out.path_head, out.path_tail)) {
    out.path_head = buffer.RemoveDotSegments(out.path_head, out.path_tail);
    out.path_tail = {};
  }
  out.fragment = {};
  return out;
}

}  // namespace

std::optional<Url> Url::Parse(std::string_view raw) {
  Parts parts;
  if (!ParseAbsolute(raw, parts)) {
    return std::nullopt;
  }
  return FromParts(parts);
}

Url Url::Make(std::string_view host, std::string_view path, std::string_view query) {
  Url url;
  url.host_ = AsciiLower(host);
  url.path_ = path.empty() ? "/" : std::string(path);
  if (!query.empty()) {
    url.has_query_ = true;
    url.query_ = std::string(query);
  }
  return url;
}

std::string Url::Extension() const {
  const std::string_view name = Filename();
  const size_t dot = name.rfind('.');
  if (dot == std::string_view::npos || dot + 1 == name.size()) {
    return "";
  }
  return AsciiLower(name.substr(dot + 1));
}

std::string_view Url::Filename() const {
  const size_t slash = path_.rfind('/');
  return std::string_view(path_).substr(slash + 1);
}

Url::Parts Url::AsParts() const {
  Parts parts;
  parts.scheme = scheme_;
  parts.host = host_;
  parts.port = port_;
  parts.path_head = path_;
  parts.query = query_;
  parts.has_query = has_query_;
  parts.fragment = fragment_;
  return parts;
}

Url Url::FromParts(const Parts& parts) {
  Url url;
  url.scheme_ = parts.scheme;
  url.host_ = AsciiLower(parts.host);
  url.port_ = parts.port;
  url.path_.assign(parts.path_head).append(parts.path_tail);
  url.query_ = parts.query;
  url.has_query_ = parts.has_query;
  url.fragment_ = parts.fragment;
  return url;
}

std::string Url::ToString() const {
  std::string out;
  // Scheme, "://", a port and the '?' and '#' fit in the slack.
  out.reserve(scheme_.size() + host_.size() + path_.size() + query_.size() + fragment_.size() +
              16);
  StringSink sink(out);
  WriteCanonical(AsParts(), sink);
  return out;
}

uint64_t Url::Hash() const {
  HashSink sink;
  WriteCanonical(AsParts(), sink);
  return sink.hash();
}

Url Url::Resolve(std::string_view ref) const {
  PathBuffer buffer;
  return FromParts(ResolveParts(AsParts(), ref, buffer));
}

uint64_t Url::ResolveHash(std::string_view ref) const {
  PathBuffer buffer;
  HashSink sink;
  WriteCanonical(ResolveParts(AsParts(), ref, buffer), sink);
  return sink.hash();
}

}  // namespace robodet
