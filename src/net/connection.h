// Per-connection HTTP/1.1 state machine: bytes in → frame+parse (one pass,
// FrameRequest) → handler → serialized response → bytes out, with
// keep-alive, pipelining, timeouts, buffer ceilings and write backpressure.
// The connection never touches epoll itself: event entry points
// (OnReadable/OnWritable) return whether the connection survives, and
// WantedEvents() tells the owning worker what interest to (re)register.
// That keeps every transition testable without a socket pair and keeps
// epoll bookkeeping in one place.
#ifndef ROBODET_SRC_NET_CONNECTION_H_
#define ROBODET_SRC_NET_CONNECTION_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/http/request.h"
#include "src/http/wire.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/util/clock.h"

namespace robodet {

// What the application hands back for one request. `robot` marks the
// session as robot-classified *right now* — under connection pressure the
// server sheds those connections first (§3.2's "robots pay first" rule
// applied to the socket layer).
struct ServedResponse {
  Response response;
  bool robot = false;
};

// The request arrives with `client_ip` set to the peer's address.
using NetHandler = std::function<ServedResponse(Request&&)>;

// Shared knobs; the server owns one instance and every connection points
// at it.
struct ConnectionLimits {
  // Write-queue high water: above it the connection stops reading (and
  // stops serving pipelined requests) until the peer drains us back under
  // the low water mark.
  size_t write_high_water = 1u << 20;
  size_t write_low_water = 256u << 10;
  // Receiving one request, from its first byte (slowloris defense).
  TimeMs read_timeout = 10 * kSecond;
  // Between requests on a keep-alive connection.
  TimeMs idle_timeout = 60 * kSecond;
  // Without a single byte of write progress while output is queued.
  TimeMs write_timeout = 10 * kSecond;
};

enum class TimeoutKind { kNone, kRead, kIdle, kWrite };

// Registry counters shared by every connection on every worker. They are
// incremented at event time, *before* the response bytes reach the peer,
// so an observer that has already seen a response never scrapes a count
// that excludes it.
struct NetStatsSink {
  Counter* requests;
  Counter* parse_errors;
  Counter* bytes_in;
  Counter* bytes_out;
};

class NetConnection {
 public:
  NetConnection(ScopedFd fd, IpAddress peer_ip, const ConnectionLimits* limits,
                const NetHandler* handler, const SimClock* clock, const NetStatsSink& sink);

  NetConnection(const NetConnection&) = delete;
  NetConnection& operator=(const NetConnection&) = delete;

  // Event entry points. Return false when the connection is finished and
  // the worker should destroy it (destructor closes the fd).
  bool OnReadable();
  bool OnWritable();

  // Deadline check against the state-appropriate timeout. kRead stages a
  // best-effort 408 before closing; the caller destroys the connection
  // when the result is not kNone — except kRead with pending output,
  // where the 408 flush gets one write_timeout's grace.
  TimeoutKind CheckDeadline(TimeMs now);

  // Graceful drain: finish the request in flight (its response is sent
  // with Connection: close), then close. Idle connections report
  // finished() immediately.
  void BeginDrain();

  // Epoll interest matching the current state: EPOLLIN unless the write
  // queue is over high water (backpressure) or we are flushing-to-close,
  // EPOLLOUT whenever output is queued or a complete buffered request
  // waits for its turn (see ProcessBufferedRequests).
  uint32_t WantedEvents() const;

  // Nothing buffered in either direction and no request mid-flight.
  bool idle() const { return in_.empty() && OutstandingOut() == 0; }
  // Drain-complete: everything flushed on a closing connection.
  bool finished() const { return close_after_flush_ && OutstandingOut() == 0; }

  bool robot() const { return robot_; }
  int fd() const { return fd_.get(); }

  // Stages a canned error response (the 503 shed notice, a 4xx) and
  // closes after flushing it.
  void StageError(StatusCode status, std::string_view detail);

 private:
  // Serves the fully buffered requests, at most a per-wake bound of them
  // and only while the write queue is under high water, and erases what it
  // served from in_ once. False → destroy.
  bool ProcessBufferedRequests();
  bool ServeOne(const FramedRequest& framed);
  // Writes as much queued output as the socket accepts. False → destroy
  // (hard write error, or flushed everything on a closing connection).
  bool FlushWrites();
  size_t OutstandingOut() const { return out_.size() - out_offset_; }
  void TouchActivity() { last_activity_ = clock_->Now(); }

  ScopedFd fd_;
  IpAddress peer_ip_;
  const ConnectionLimits* limits_;  // Not owned.
  const NetHandler* handler_;      // Not owned.
  const SimClock* clock_;          // Not owned (WallClock in the daemon).
  const NetStatsSink& sink_;       // Not owned.

  std::string in_;   // Unparsed request bytes.
  std::string out_;  // Serialized, unsent response bytes.
  size_t out_offset_ = 0;

  TimeMs last_activity_ = 0;        // Any socket progress.
  TimeMs request_start_ = 0;        // First byte of the request being received.
  TimeMs last_write_progress_ = 0;  // Last byte accepted by the socket.
  // True while a request is partially buffered; request_start_ is only
  // meaningful then (a WallClock starts at 0, so 0 cannot be a sentinel).
  bool receiving_ = false;

  bool close_after_flush_ = false;
  bool draining_ = false;
  bool peer_half_closed_ = false;
  bool timed_out_408_ = false;
  // The per-wake bound or write backpressure left a complete request (or
  // one to reject) unserved.
  bool resume_ = false;
  bool robot_ = false;
};

}  // namespace robodet

#endif  // ROBODET_SRC_NET_CONNECTION_H_
