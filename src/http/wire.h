// HTTP/1.x wire format: frame and parse request bytes into the robodet
// request record, and serialize responses back to bytes. This is the bridge
// between robodet's detectors and a socket. One function walks a request's
// bytes: FrameRequest checks the envelope (start line, header syntax, CRLF
// discipline, the kMaxWire* limits, smuggling vectors) and hands back views
// of its parts, from which BuildRequest makes the record. Parsing is strict
// about the envelope and tolerant about content (unknown headers pass
// through untouched).
#ifndef ROBODET_SRC_HTTP_WIRE_H_
#define ROBODET_SRC_HTTP_WIRE_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/http/request.h"

namespace robodet {

// Hard limits on hostile input. Anything over these is rejected, never
// partially swallowed: a line or header flood dies with 431 before the
// block is complete, and a declared body past the cap with 413 before a
// single body byte is buffered.
inline constexpr size_t kMaxWireLineBytes = 16 * 1024;   // Start line or one header line.
inline constexpr size_t kMaxWireHeaderCount = 256;       // Header lines per message.
inline constexpr size_t kMaxWireBodyBytes = 16u << 20;   // Body after the blank line.

// One header line: views into the framed buffer, the value without its
// surrounding whitespace.
struct HeaderField {
  std::string_view name;
  std::string_view value;
};

enum class FrameStatus {
  kNeedMore,  // The buffer holds a valid prefix; read more bytes.
  kComplete,  // `consumed` bytes form one full request message.
  kError,     // Protocol violation: answer `error_status` and close.
};

struct FramedRequest {
  FrameStatus status = FrameStatus::kNeedMore;
  // When kComplete: total message size (start line through body end).
  size_t consumed = 0;
  // Declared Content-Length (0 when absent).
  size_t body_bytes = 0;
  bool http11 = true;
  // Connection-header semantics for this request (RFC 9112 §9.3).
  bool keep_alive = true;
  // When kComplete: the message's parts, as views into the buffer given to
  // FrameRequest; valid while that buffer is unchanged.
  Method method = Method::kGet;
  std::string_view target;
  std::vector<HeaderField> headers;
  std::string_view body;
  // When kError: what to tell the client before closing.
  StatusCode error_status = StatusCode::kBadRequest;
  std::string error;
};

// Frames the request at the start of `buffer` in one pass over its bytes.
// Pure: no state between calls — feeding the same buffer plus more bytes
// re-frames from scratch, which is O(header bytes) and only happens while
// a request is still arriving. A line is checked as soon as its LF is
// buffered; bare LF is tolerated. The line rules (RFC 9112 §3, §5):
//   - request line: exactly "METHOD SP target SP HTTP/1.0|HTTP/1.1", with
//     a known method token;
//   - header line: a name, then ':' right after it, then the value. No
//     whitespace inside the name or between the name and the colon, and a
//     line that starts with SP or HTAB (obs-fold) is refused;
//   - Content-Length: digits only, duplicates must agree, at most
//     kMaxWireBodyBytes (413); any Transfer-Encoding is refused;
//   - line length and count: kMaxWireLineBytes and kMaxWireHeaderCount
//     (431).
// Every other violation is a 400.
FramedRequest FrameRequest(std::string_view buffer);

struct WireParseError {
  std::string message;
};

template <typename T>
struct WireResult {
  std::optional<T> value;
  WireParseError error;  // Meaningful only when !value.
  explicit operator bool() const { return value.has_value(); }
};

// Builds the request record from a complete frame. The target may be an
// absolute URL (proxy form) or an origin-form path, in which case the Host
// header supplies the authority; a target that resolves to no URL is the
// only failure (a 400). `client_ip` and `time` are not on the wire;
// callers stamp them afterwards.
WireResult<Request> BuildRequest(const FramedRequest& framed);

// Frames and builds one whole message, "METHOD target HTTP/1.x\r\n
// headers\r\n\r\nbody". A truncated message, or bytes past the body its
// Content-Length declares, is an error.
WireResult<Request> ParseRequestText(std::string_view text);

// Serializes a response with accurate framing: Content-Length is set to
// the actual body size (stale values are replaced, Transfer-Encoding is
// dropped) so a client reading the output recovers the same body — what
// the connection state machine relies on to frame messages on a
// keep-alive stream. Bodyless statuses (1xx/204/304) omit Content-Length
// when the body is empty.
std::string SerializeResponse(const Response& response);
// Appends SerializeResponse(response) to `out`; with `omit_body` (a HEAD
// response) the header block alone, still stating the body's length.
void AppendSerializedResponse(std::string& out, const Response& response,
                              bool omit_body = false);

// `Connection` header semantics (RFC 9112 §9.3): a "close" token in any
// Connection line closes, whatever else the lines say; otherwise a
// "keep-alive" token keeps the connection open, and without either
// HTTP/1.1 defaults to keep-alive and HTTP/1.0 to close.
bool WantKeepAlive(std::span<const HeaderField> fields, bool http11);

}  // namespace robodet

#endif  // ROBODET_SRC_HTTP_WIRE_H_
