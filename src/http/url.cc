#include "src/http/url.h"

#include <charconv>

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

Url::Parts Url::ResolveParts(std::string_view ref) const {
  if (StartsWithScheme(ref)) {
    Parts absolute;
    return ParseAbsolute(ref, absolute) ? absolute : AsParts();
  }
  if (ref.starts_with("//")) {
    Parts network;
    network.scheme = scheme_;
    network.port = DefaultPort(scheme_);
    return ParseAfterScheme(ref.substr(2), network) ? network : AsParts();
  }
  Parts out = AsParts();
  out.query = {};
  out.has_query = false;
  out.fragment = {};
  std::string_view rest = ref;
  SplitQueryAndFragment(rest, out);
  if (rest.empty()) {
    // Same document, possibly new query/fragment.
  } else if (rest[0] == '/') {
    out.path_head = rest;
  } else {
    const size_t slash = path_.rfind('/');
    out.path_head = std::string_view(path_).substr(0, slash + 1);
    out.path_tail = rest;
  }
  return out;
}

Url Url::Resolve(std::string_view ref) const { return FromParts(ResolveParts(ref)); }

uint64_t Url::ResolveHash(std::string_view ref) const {
  HashSink sink;
  WriteCanonical(ResolveParts(ref), sink);
  return sink.hash();
}

}  // namespace robodet
