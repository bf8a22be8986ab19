#include "src/util/strings.h"

#include <cctype>
#include <cstdio>

namespace robodet {

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return out;
}

void AppendAsciiLower(std::string& out, std::string_view s) {
  const size_t base = out.size();
  out.append(s);
  for (size_t i = base; i < out.size(); ++i) {
    char& c = out[i];
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    char ca = a[i];
    char cb = b[i];
    if (ca >= 'A' && ca <= 'Z') {
      ca = static_cast<char>(ca - 'A' + 'a');
    }
    if (cb >= 'A' && cb <= 'Z') {
      cb = static_cast<char>(cb - 'A' + 'a');
    }
    if (ca != cb) {
      return false;
    }
  }
  return true;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::optional<uint64_t> ParseU64(std::string_view s) {
  if (s.empty()) {
    return std::nullopt;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      return std::nullopt;  // Overflow.
    }
    v = v * 10 + digit;
  }
  return v;
}

bool ContainsIgnoreCase(std::string_view s, std::string_view needle) {
  if (needle.empty()) {
    return true;
  }
  if (needle.size() > s.size()) {
    return false;
  }
  for (size_t i = 0; i + needle.size() <= s.size(); ++i) {
    if (EqualsIgnoreCase(s.substr(i, needle.size()), needle)) {
      return true;
    }
  }
  return false;
}

std::string ReplaceAll(std::string_view s, std::string_view from, std::string_view to) {
  std::string out;
  AppendReplaceAll(out, s, from, to);
  return out;
}

void AppendReplaceAll(std::string& out, std::string_view s, std::string_view from,
                      std::string_view to) {
  if (from.empty()) {
    out.append(s);
    return;
  }
  size_t pos = 0;
  for (;;) {
    const size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      return;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscape(out, s);
  return out;
}

void AppendJsonEscape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace robodet
