#include "src/net/connection.h"

#include <sys/epoll.h>

#include <utility>

#include "src/net/framer.h"

namespace robodet {
namespace {

// Socket read granularity. Small enough that one read never blows past the
// in-buffer ceiling by much, large enough to drain a fat pipe in few calls.
constexpr size_t kReadChunkBytes = 64 * 1024;

// In-buffer ceiling: one max body plus header allowance. Anything that
// overflows it without framing a request is hostile.
constexpr size_t kMaxInBuffer = (16u << 20) + (64u << 10);

// Requests served per wakeup: bounds how long one pipelining client can
// monopolize the worker loop.
constexpr size_t kMaxRequestsPerWake = 16;

}  // namespace

NetConnection::NetConnection(ScopedFd fd, IpAddress peer_ip, const ConnectionLimits* limits,
                             const NetHandler* handler, const SimClock* clock,
                             const NetStatsSink& sink)
    : fd_(std::move(fd)), peer_ip_(peer_ip), limits_(limits), handler_(handler), clock_(clock),
      sink_(sink) {
  last_activity_ = clock_->Now();
  last_write_progress_ = last_activity_;
}

bool NetConnection::OnReadable() {
  if (close_after_flush_) {
    // Closing: discard whatever the peer is still sending. Unread bytes in
    // the receive queue make close() send RST instead of FIN, and an RST
    // can destroy a staged error response (shed 503, 408) before the peer
    // reads it. Bounded so a blasting peer cannot pin the worker.
    char waste[kReadChunkBytes];
    for (int rounds = 0; rounds < 4; ++rounds) {
      const IoResult got = ReadOnce(fd_.get(), waste, sizeof(waste));
      if (got.n > 0) {
        TouchActivity();
        continue;
      }
      if (got.eof) {
        peer_half_closed_ = true;
      }
      break;
    }
    return FlushWrites();
  }
  // Backpressure: above the high-water mark we stop reading entirely (the
  // worker drops EPOLLIN interest via WantedEvents, but a level-triggered
  // event already in flight can still land here).
  if (OutstandingOut() > limits_->write_high_water) {
    return true;
  }

  char chunk[kReadChunkBytes];
  for (;;) {
    const IoResult got = ReadOnce(fd_.get(), chunk, sizeof(chunk));
    if (got.would_block) {
      break;
    }
    if (got.eof) {
      // Peer finished sending. Any complete pipelined requests already
      // buffered still get answers; a partial request is abandoned.
      peer_half_closed_ = true;
      break;
    }
    if (got.error != 0) {
      return false;  // Hard socket error; nothing to flush.
    }
    TouchActivity();
    if (!receiving_) {
      receiving_ = true;  // First byte of a new request.
      request_start_ = last_activity_;
    }
    sink_.bytes_in->Inc(static_cast<uint64_t>(got.n));
    in_.append(chunk, static_cast<size_t>(got.n));
    if (in_.size() > kMaxInBuffer) {
      // More bytes than any legal request can span without framing one:
      // hostile or broken. 431 matches the header-flood case, which is the
      // only way to get here given the framer's early 413 on declared
      // bodies.
      StageError(StatusCode::kHeaderFieldsTooLarge, "request exceeds buffer limit");
      sink_.parse_errors->Inc();
      return FlushWrites();
    }
    if (static_cast<size_t>(got.n) < sizeof(chunk)) {
      break;  // Drained the socket.
    }
  }

  if (!ProcessBufferedRequests()) {
    return false;
  }
  if (peer_half_closed_ && OutstandingOut() == 0) {
    return false;  // Peer gone and nothing left to say.
  }
  return FlushWrites();
}

bool NetConnection::OnWritable() {
  if (!FlushWrites()) {
    return false;
  }
  // Dropping back under the low-water mark re-opens the spigot: requests
  // that were buffered but unserved (pipelining under backpressure) run
  // now rather than waiting for the peer to send more bytes.
  if (!close_after_flush_ && OutstandingOut() < limits_->write_low_water) {
    if (!ProcessBufferedRequests()) {
      return false;
    }
    if (peer_half_closed_ && OutstandingOut() == 0) {
      return false;
    }
    return FlushWrites();
  }
  return true;
}

bool NetConnection::ProcessBufferedRequests() {
  // Served messages are consumed by offset into in_, whose bytes stay put
  // (and the frame's views valid) until the one erase after the loop.
  size_t consumed = 0;
  size_t served = 0;
  resume_ = false;
  while (!close_after_flush_ && consumed < in_.size()) {
    const FramedRequest framed = FrameRequest(std::string_view(in_).substr(consumed));
    if (framed.status == FrameStatus::kNeedMore) {
      break;
    }
    if (served == kMaxRequestsPerWake || OutstandingOut() > limits_->write_high_water) {
      // The bound or backpressure cut the batch short with a complete
      // request, or one to reject, buffered. No new bytes may ever
      // arrive to wake the connection, so WantedEvents asks for EPOLLOUT,
      // which a writable socket reports at once, and OnWritable serves the
      // rest. A partial request waits for its bytes, not in a busy loop,
      // and a batch that ends exactly at the bound costs no extra wake.
      resume_ = true;
      break;
    }
    if (framed.status == FrameStatus::kError) {
      sink_.parse_errors->Inc();
      StageError(framed.error_status, framed.error);
      return true;  // Error response staged; close after flush.
    }
    if (!ServeOne(framed)) {
      return false;
    }
    consumed += framed.consumed;
    ++served;
  }
  in_.erase(0, consumed);
  if (in_.empty()) {
    receiving_ = false;  // Between requests: idle_timeout applies.
  } else if (served > 0) {
    // Leftover bytes start a newer request; its read clock starts now,
    // not when the first byte of the batch arrived.
    request_start_ = clock_->Now();
  }
  return true;
}

bool NetConnection::ServeOne(const FramedRequest& framed) {
  auto built = BuildRequest(framed);
  if (!built.value.has_value()) {
    // Framed fine but names no URL (origin form without Host, an
    // unparseable target). Answer 400 and close.
    sink_.parse_errors->Inc();
    StageError(StatusCode::kBadRequest, built.error.message);
    return true;
  }

  Request request = std::move(*built.value);
  const bool head = request.method == Method::kHead;
  request.time = clock_->Now();
  request.client_ip = peer_ip_;

  ServedResponse served = (*handler_)(std::move(request));
  robot_ = served.robot;
  sink_.requests->Inc();

  const bool close = draining_ || !framed.keep_alive;
  served.response.headers.Set("Connection", close ? "close" : "keep-alive");
  // Serialized straight onto the send buffer. HEAD: full header block
  // (Content-Length states what a GET would return) but no body bytes on
  // the wire.
  AppendSerializedResponse(out_, served.response, /*omit_body=*/head);
  if (close) {
    close_after_flush_ = true;
  }
  return true;
}

void NetConnection::StageError(StatusCode status, std::string_view detail) {
  out_ += RenderErrorResponse(status, detail);
  close_after_flush_ = true;
  in_.clear();  // Nothing after a framing error is trustworthy.
}

bool NetConnection::FlushWrites() {
  while (OutstandingOut() > 0) {
    const IoResult wrote = WriteOnce(fd_.get(), out_.data() + out_offset_, OutstandingOut());
    if (wrote.would_block) {
      return true;  // Wait for EPOLLOUT.
    }
    if (wrote.error != 0) {
      return false;  // Peer reset; nothing more to do.
    }
    out_offset_ += static_cast<size_t>(wrote.n);
    sink_.bytes_out->Inc(static_cast<uint64_t>(wrote.n));
    TouchActivity();
    last_write_progress_ = last_activity_;
  }
  // Fully flushed: reclaim the buffer rather than growing forever.
  out_.clear();
  out_offset_ = 0;
  return !close_after_flush_;
}

TimeoutKind NetConnection::CheckDeadline(TimeMs now) {
  if (OutstandingOut() > 0) {
    if (now - last_write_progress_ > limits_->write_timeout) {
      return TimeoutKind::kWrite;
    }
    return TimeoutKind::kNone;  // Output moving; reads can wait.
  }
  if (receiving_) {
    if (now - request_start_ > limits_->read_timeout && !timed_out_408_) {
      // Slowloris: headers trickling in forever. Stage a 408 so the one
      // write the client gets explains the hangup; the server gives the
      // flush a write_timeout's grace before force-closing.
      timed_out_408_ = true;
      StageError(StatusCode::kRequestTimeout, "request not received in time");
      last_write_progress_ = now;
      return TimeoutKind::kRead;
    }
    return TimeoutKind::kNone;
  }
  if (now - last_activity_ > limits_->idle_timeout) {
    return TimeoutKind::kIdle;
  }
  return TimeoutKind::kNone;
}

void NetConnection::BeginDrain() {
  draining_ = true;
  if (idle()) {
    close_after_flush_ = true;  // finished() becomes true; server closes us.
  }
  // Otherwise: the in-flight (or next buffered) response goes out with
  // Connection: close via the `draining_` check in ServeOne.
}

uint32_t NetConnection::WantedEvents() const {
  uint32_t events = 0;
  if (!close_after_flush_ && !peer_half_closed_ &&
      OutstandingOut() <= limits_->write_high_water) {
    events |= EPOLLIN;
  }
  if (OutstandingOut() > 0 || resume_) {
    events |= EPOLLOUT;
  }
  return events;
}

}  // namespace robodet
