// Reads one response off the front of a byte stream, as a client of the
// server would: "HTTP/1.0|1.1 NNN[ reason]", header lines, a blank line,
// then exactly Content-Length body bytes (none when the header is absent).
// The server writes every response with CRLF line ends and a
// Content-Length, so this is all the framing the tests need.
#ifndef ROBODET_TESTS_HTTP_RESPONSE_READER_H_
#define ROBODET_TESTS_HTTP_RESPONSE_READER_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/http/request.h"
#include "src/util/strings.h"

namespace robodet {

struct FramedResponse {
  Response response;
  size_t size = 0;  // Bytes the response occupies in the stream.
};

// Neither field is set while the response is incomplete; `error` is set
// once the head is complete but malformed.
struct ResponseRead {
  std::optional<FramedResponse> framed;
  std::string error;
};

inline ResponseRead ReadResponseText(std::string_view bytes) {
  ResponseRead read;
  const size_t head_end = bytes.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return read;
  }
  const std::string_view head = bytes.substr(0, head_end);
  size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  const std::string_view version = status_line.substr(0, 8);
  if ((version != "HTTP/1.0" && version != "HTTP/1.1") || status_line.size() < 12 ||
      status_line[8] != ' ' || (status_line.size() > 12 && status_line[12] != ' ')) {
    read.error = "status line must be 'HTTP/1.x NNN [reason]': " + std::string(status_line);
    return read;
  }
  const auto code = ParseU64(status_line.substr(9, 3));
  if (!code.has_value() || *code < 100 || *code > 599) {
    read.error = "invalid status code in '" + std::string(status_line) + "'";
    return read;
  }
  FramedResponse framed;
  framed.response.status = static_cast<StatusCode>(*code);
  while (line_end != std::string_view::npos) {
    const size_t start = line_end + 2;
    line_end = head.find("\r\n", start);
    const std::string_view line = head.substr(start, line_end - start);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      read.error = "malformed header line '" + std::string(line) + "'";
      return read;
    }
    framed.response.headers.Add(TrimWhitespace(line.substr(0, colon)),
                                TrimWhitespace(line.substr(colon + 1)));
  }
  size_t body_size = 0;
  if (const auto length = framed.response.headers.Get("Content-Length"); length.has_value()) {
    const auto n = ParseU64(*length);
    if (!n.has_value()) {
      read.error = "invalid Content-Length '" + std::string(*length) + "'";
      return read;
    }
    body_size = static_cast<size_t>(*n);
  }
  framed.size = head_end + 4 + body_size;
  if (bytes.size() < framed.size) {
    return read;
  }
  framed.response.body = std::string(bytes.substr(head_end + 4, body_size));
  read.framed = std::move(framed);
  return read;
}

}  // namespace robodet

#endif  // ROBODET_TESTS_HTTP_RESPONSE_READER_H_
