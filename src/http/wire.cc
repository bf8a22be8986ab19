#include "src/http/wire.h"

#include <charconv>

#include "src/util/strings.h"

namespace robodet {
namespace {

FramedRequest Error(StatusCode status, std::string message) {
  FramedRequest framed;
  framed.status = FrameStatus::kError;
  framed.error_status = status;
  framed.error = std::move(message);
  return framed;
}

// Takes the line at `*pos`, terminated by CRLF or by the bare LF real
// traffic contains, into `*line` without its terminator and moves `*pos`
// past it. kNeedMore while the LF has not arrived; kError when the line,
// complete or not, is longer than any legal one.
FrameStatus TakeLine(std::string_view buffer, size_t* pos, std::string_view* line) {
  const size_t lf = buffer.find('\n', *pos);
  if (lf == std::string_view::npos) {
    return buffer.size() - *pos > kMaxWireLineBytes ? FrameStatus::kError
                                                    : FrameStatus::kNeedMore;
  }
  size_t end = lf;
  if (end > *pos && buffer[end - 1] == '\r') {
    --end;
  }
  *line = buffer.substr(*pos, end - *pos);
  *pos = lf + 1;
  return line->size() > kMaxWireLineBytes ? FrameStatus::kError : FrameStatus::kComplete;
}

// "METHOD SP target SP HTTP/1.x" into `framed`. Returns what is wrong with
// the line, or "" when it is valid.
std::string ParseRequestLine(std::string_view line, FramedRequest* framed) {
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || line.find(' ', sp2 + 1) != std::string_view::npos) {
    return "request line must be 'METHOD target HTTP/1.x'";
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view version = line.substr(sp2 + 1);
  const auto parsed = ParseMethod(method);
  if (!parsed.has_value()) {
    return "unknown method '" + std::string(method) + "'";
  }
  if (version != "HTTP/1.0" && version != "HTTP/1.1") {
    return "unsupported protocol version '" + std::string(version) + "'";
  }
  framed->method = *parsed;
  framed->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  framed->http11 = version == "HTTP/1.1";
  return "";
}

}  // namespace

FramedRequest FrameRequest(std::string_view buffer) {
  FramedRequest framed;
  size_t pos = 0;
  std::string_view line;
  switch (TakeLine(buffer, &pos, &line)) {
    case FrameStatus::kNeedMore:
      return {};
    case FrameStatus::kError:
      return Error(StatusCode::kHeaderFieldsTooLarge, "request line exceeds limit");
    case FrameStatus::kComplete:
      break;
  }
  if (std::string error = ParseRequestLine(line, &framed); !error.empty()) {
    return Error(StatusCode::kBadRequest, std::move(error));
  }

  std::optional<uint64_t> content_length;
  framed.headers.reserve(16);
  for (;;) {
    switch (TakeLine(buffer, &pos, &line)) {
      case FrameStatus::kNeedMore:
        return {};  // Header block still arriving.
      case FrameStatus::kError:
        return Error(StatusCode::kHeaderFieldsTooLarge, "header line exceeds limit");
      case FrameStatus::kComplete:
        break;
    }
    if (line.empty()) {
      break;  // End of headers.
    }
    if (framed.headers.size() == kMaxWireHeaderCount) {
      return Error(StatusCode::kHeaderFieldsTooLarge, "too many header lines");
    }
    // RFC 9112 §5.2: a server must reject obs-fold (or rewrite it, which
    // would give a smuggled header a second reading).
    if (line[0] == ' ' || line[0] == '\t') {
      return Error(StatusCode::kBadRequest, "obsolete line folding");
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Error(StatusCode::kBadRequest, "malformed header line");
    }
    // RFC 9112 §5.1: no whitespace between the name and the colon, which
    // is how "Content-Length : 5" slips past a proxy that trims it.
    const std::string_view name = line.substr(0, colon);
    if (name.find_first_of(" \t\r\v\f") != std::string_view::npos) {
      return Error(StatusCode::kBadRequest, "malformed header name");
    }
    const std::string_view value = TrimWhitespace(line.substr(colon + 1));
    framed.headers.push_back({name, value});
    if (EqualsIgnoreCase(name, "Content-Length")) {
      const auto parsed = ParseU64(value);
      if (!parsed.has_value()) {
        return Error(StatusCode::kBadRequest, "malformed Content-Length");
      }
      if (content_length.has_value() && *content_length != *parsed) {
        // Conflicting lengths are a request-smuggling vector, not a typo.
        return Error(StatusCode::kBadRequest, "conflicting Content-Length headers");
      }
      content_length = *parsed;
    } else if (EqualsIgnoreCase(name, "Transfer-Encoding")) {
      // No chunked *request* bodies: a proxy that guessed wrong about
      // which framing wins is how smuggling attacks work. Clients that
      // need a body state its length.
      return Error(StatusCode::kBadRequest, "chunked request bodies not supported");
    }
  }

  framed.keep_alive = WantKeepAlive(framed.headers, framed.http11);
  if (content_length.has_value()) {
    if (*content_length > kMaxWireBodyBytes) {
      // Rejected on the declaration — the body is never buffered.
      return Error(StatusCode::kPayloadTooLarge, "declared body exceeds limit");
    }
    framed.body_bytes = static_cast<size_t>(*content_length);
  }
  if (buffer.size() - pos < framed.body_bytes) {
    return {};  // Body still arriving.
  }
  framed.status = FrameStatus::kComplete;
  framed.body = buffer.substr(pos, framed.body_bytes);
  framed.consumed = pos + framed.body_bytes;
  return framed;
}

bool WantKeepAlive(std::span<const HeaderField> fields, bool http11) {
  bool keep_alive = http11;
  for (const HeaderField& field : fields) {
    if (!EqualsIgnoreCase(field.name, "Connection")) {
      continue;
    }
    for (const std::string& token : Split(field.value, ',')) {
      const std::string_view trimmed = TrimWhitespace(token);
      if (EqualsIgnoreCase(trimmed, "close")) {
        return false;
      }
      keep_alive = keep_alive || EqualsIgnoreCase(trimmed, "keep-alive");
    }
  }
  return keep_alive;
}

WireResult<Request> BuildRequest(const FramedRequest& framed) {
  WireResult<Request> result;
  Request request;
  request.method = framed.method;
  request.headers.Reserve(framed.headers.size());
  for (const HeaderField& field : framed.headers) {
    request.headers.Add(field.name, field.value);
  }

  // Resolve the target: absolute form, or origin form + Host header.
  const std::string_view target = framed.target;
  if (auto absolute = Url::Parse(target); absolute.has_value()) {
    request.url = std::move(*absolute);
  } else if (!target.empty() && target[0] == '/') {
    const auto host = request.headers.Get("Host");
    if (!host.has_value() || host->empty()) {
      result.error = {"origin-form target without Host header"};
      return result;
    }
    // Host may carry a port.
    std::string absolute_form = "http://";
    absolute_form.append(*host).append(target);
    auto with_host = Url::Parse(absolute_form);
    if (!with_host.has_value()) {
      result.error = {"unparseable Host + target combination"};
      return result;
    }
    request.url = std::move(*with_host);
  } else {
    result.error = {"unsupported request target '" + std::string(target) + "'"};
    return result;
  }
  request.body = std::string(framed.body);
  result.value = std::move(request);
  return result;
}

WireResult<Request> ParseRequestText(std::string_view text) {
  const FramedRequest framed = FrameRequest(text);
  WireResult<Request> result;
  if (framed.status == FrameStatus::kError) {
    result.error = {framed.error};
  } else if (framed.status == FrameStatus::kNeedMore) {
    result.error = {"truncated message (no blank line, or a short body)"};
  } else if (framed.consumed != text.size()) {
    result.error = {"body exceeds its Content-Length"};
  } else {
    return BuildRequest(framed);
  }
  return result;
}

std::string SerializeResponse(const Response& response) {
  std::string out;
  AppendSerializedResponse(out, response);
  return out;
}

void AppendSerializedResponse(std::string& out, const Response& response, bool omit_body) {
  // The status line, the headers and a Content-Length fit in this.
  out.reserve(out.size() + response.WireSize() + 32);
  const int status = StatusValue(response.status);
  char digits[24];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), status);
  out.append("HTTP/1.1 ").append(digits, static_cast<size_t>(end - digits)).push_back(' ');
  out.append(ReasonPhrase(response.status)).append("\r\n");
  // Framing headers are replaced, not echoed.
  for (const auto& [name, value] : response.headers.entries()) {
    if (EqualsIgnoreCase(name, "Content-Length") || EqualsIgnoreCase(name, "Transfer-Encoding")) {
      continue;
    }
    out.append(name).append(": ").append(value).append("\r\n");
  }
  // 1xx/204/304 must not carry a body; everything else states its length
  // explicitly so a keep-alive peer can frame the next message.
  const bool bodyless = status < 200 || status == 204 || status == 304;
  if (!bodyless || !response.body.empty()) {
    const auto [len_end, len_ec] =
        std::to_chars(digits, digits + sizeof(digits), response.body.size());
    out.append("Content-Length: ").append(digits, static_cast<size_t>(len_end - digits));
    out.append("\r\n");
  }
  out.append("\r\n");
  if (!omit_body) {
    out.append(response.body);
  }
}

}  // namespace robodet
