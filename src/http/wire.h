// HTTP/1.x wire format: parse raw request text into the robodet request
// record and serialize responses back to bytes. This is the bridge between
// robodet's detectors and a socket. Parsing is strict about the envelope
// (start line, header syntax, CRLF discipline) and tolerant about content
// (unknown headers pass through untouched).
#ifndef ROBODET_SRC_HTTP_WIRE_H_
#define ROBODET_SRC_HTTP_WIRE_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/http/request.h"

namespace robodet {

// Hard limits on hostile input. Anything over these is rejected with a
// parse error, never partially swallowed: a proxy that buffers the whole
// message before parsing needs the bound to exist *somewhere*, and the
// parser is the last line of defense.
inline constexpr size_t kMaxWireLineBytes = 16 * 1024;   // Start line or one header line.
inline constexpr size_t kMaxWireHeaderCount = 256;       // Header lines per message.
inline constexpr size_t kMaxWireBodyBytes = 16u << 20;   // Body after the blank line.

struct WireParseError {
  std::string message;
  size_t offset = 0;  // Byte offset of the problem in the input.
};

template <typename T>
struct WireResult {
  std::optional<T> value;
  WireParseError error;  // Meaningful only when !value.
  explicit operator bool() const { return value.has_value(); }
};

// Parses "METHOD target HTTP/1.x\r\nheaders\r\n\r\nbody". The target may
// be an absolute URL (proxy form) or an origin-form path, in which case
// the Host header supplies the authority. `client_ip` and `time` are not
// on the wire; callers stamp them afterwards.
WireResult<Request> ParseRequestText(std::string_view text);

// Serializes a response with accurate framing: Content-Length is set to
// the actual body size (stale values are replaced, Transfer-Encoding is
// dropped) so a client reading the output recovers the same body — what
// the connection state machine relies on to frame messages on a
// keep-alive stream. Bodyless statuses (1xx/204/304) omit Content-Length
// when the body is empty.
std::string SerializeResponse(const Response& response);

// `Connection` header semantics (RFC 9112 §9.3): a "close" token in any
// Connection line closes, whatever else the lines say; otherwise a
// "keep-alive" token keeps the connection open, and without either
// HTTP/1.1 defaults to keep-alive and HTTP/1.0 to close.
bool WantKeepAlive(const Headers& headers, bool http11);

}  // namespace robodet

#endif  // ROBODET_SRC_HTTP_WIRE_H_
