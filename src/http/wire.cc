#include "src/http/wire.h"

#include "src/util/strings.h"

namespace robodet {
namespace {

// Consumes one line terminated by CRLF (or bare LF, which real traffic
// contains); returns the line without the terminator and advances `pos`.
std::optional<std::string_view> NextLine(std::string_view text, size_t& pos) {
  if (pos >= text.size()) {
    return std::nullopt;
  }
  const size_t lf = text.find('\n', pos);
  if (lf == std::string_view::npos) {
    return std::nullopt;
  }
  size_t end = lf;
  if (end > pos && text[end - 1] == '\r') {
    --end;
  }
  std::string_view line = text.substr(pos, end - pos);
  pos = lf + 1;
  return line;
}

// Parses the header block starting at `pos`; stops after the blank line.
// Returns false (with error filled) on syntactically broken headers.
bool ParseHeaderBlock(std::string_view text, size_t& pos, Headers* headers,
                      WireParseError* error) {
  size_t count = 0;
  for (;;) {
    const size_t line_start = pos;
    const auto line = NextLine(text, pos);
    if (!line.has_value()) {
      error->message = "truncated header block (no blank line)";
      error->offset = line_start;
      return false;
    }
    if (line->empty()) {
      return true;  // End of headers.
    }
    if (line->size() > kMaxWireLineBytes) {
      error->message = "header line exceeds limit";
      error->offset = line_start;
      return false;
    }
    if (++count > kMaxWireHeaderCount) {
      error->message = "too many header lines";
      error->offset = line_start;
      return false;
    }
    const size_t colon = line->find(':');
    if (colon == std::string_view::npos || colon == 0) {
      error->message = "malformed header line";
      error->offset = line_start;
      return false;
    }
    const std::string_view name = TrimWhitespace(line->substr(0, colon));
    const std::string_view value = TrimWhitespace(line->substr(colon + 1));
    if (name.empty() || name.find(' ') != std::string_view::npos) {
      error->message = "malformed header name";
      error->offset = line_start;
      return false;
    }
    headers->Add(name, value);
  }
}

bool IsHttpVersion(std::string_view token) {
  return token == "HTTP/1.0" || token == "HTTP/1.1";
}

}  // namespace

bool WantKeepAlive(const Headers& headers, bool http11) {
  bool keep_alive = http11;
  for (const auto& [name, value] : headers.entries()) {
    if (!EqualsIgnoreCase(name, "Connection")) {
      continue;
    }
    for (const std::string& token : Split(value, ',')) {
      const std::string_view trimmed = TrimWhitespace(token);
      if (EqualsIgnoreCase(trimmed, "close")) {
        return false;
      }
      keep_alive = keep_alive || EqualsIgnoreCase(trimmed, "keep-alive");
    }
  }
  return keep_alive;
}

WireResult<Request> ParseRequestText(std::string_view text) {
  WireResult<Request> result;
  size_t pos = 0;
  const auto start_line = NextLine(text, pos);
  if (!start_line.has_value()) {
    result.error = {"missing request line", 0};
    return result;
  }
  if (start_line->size() > kMaxWireLineBytes) {
    result.error = {"request line exceeds limit", 0};
    return result;
  }
  const std::vector<std::string> parts = Split(*start_line, ' ');
  if (parts.size() != 3) {
    result.error = {"request line must be 'METHOD target HTTP/1.x'", 0};
    return result;
  }
  const auto method = ParseMethod(parts[0]);
  if (!method.has_value()) {
    result.error = {"unknown method '" + parts[0] + "'", 0};
    return result;
  }
  if (!IsHttpVersion(parts[2])) {
    result.error = {"unsupported protocol version '" + parts[2] + "'", 0};
    return result;
  }

  Request request;
  request.method = *method;
  if (!ParseHeaderBlock(text, pos, &request.headers, &result.error)) {
    return result;
  }

  // Resolve the target: absolute form, or origin form + Host header.
  const std::string& target = parts[1];
  if (auto absolute = Url::Parse(target); absolute.has_value()) {
    request.url = *absolute;
  } else if (!target.empty() && target[0] == '/') {
    const auto host = request.headers.Get("Host");
    if (!host.has_value() || host->empty()) {
      result.error = {"origin-form target without Host header", 0};
      return result;
    }
    // Host may carry a port.
    const std::string host_str(*host);
    const auto with_host = Url::Parse("http://" + host_str + target);
    if (!with_host.has_value()) {
      result.error = {"unparseable Host + target combination", 0};
      return result;
    }
    request.url = *with_host;
  } else {
    result.error = {"unsupported request target '" + target + "'", 0};
    return result;
  }
  // Body: everything after the blank line, trimmed by Content-Length.
  std::string_view body = text.substr(pos);
  if (const auto cl = request.headers.Get("Content-Length"); cl.has_value()) {
    if (const auto n = ParseU64(*cl); n.has_value() && *n <= body.size()) {
      body = body.substr(0, *n);
    }
  }
  if (body.size() > kMaxWireBodyBytes) {
    result.error = {"body exceeds limit", pos};
    return result;
  }
  request.body = std::string(body);
  result.value = std::move(request);
  return result;
}

std::string SerializeResponse(const Response& response) {
  std::string out = "HTTP/1.1 ";
  const int status = StatusValue(response.status);
  out += std::to_string(status);
  out += ' ';
  out += ReasonPhrase(response.status);
  out += "\r\n";
  // Framing headers are replaced, not echoed.
  for (const auto& [name, value] : response.headers.entries()) {
    if (EqualsIgnoreCase(name, "Content-Length") || EqualsIgnoreCase(name, "Transfer-Encoding")) {
      continue;
    }
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  // 1xx/204/304 must not carry a body; everything else states its length
  // explicitly so a keep-alive peer can frame the next message.
  const bool bodyless = status < 200 || status == 204 || status == 304;
  if (!bodyless || !response.body.empty()) {
    out += "Content-Length: ";
    out += std::to_string(response.body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

}  // namespace robodet
