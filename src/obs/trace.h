// Per-request trace spans through the proxy pipeline. A traced request
// produces a RequestTrace: an ordered list of named spans (parse →
// rewrite/inject → probe intercept → session update → classify → policy)
// with nanosecond timings and optional notes. The recorder head-samples
// 1/N requests (plus any the caller forces), keeps the last `capacity`
// traces in a ring, and tail-samples on eviction: traces that ended in a
// blocked request or a robot verdict are retained in preference to
// ordinary ones, so the interesting evidence survives ring pressure.
#ifndef ROBODET_SRC_OBS_TRACE_H_
#define ROBODET_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace robodet {

// Wall-clock monotonic nanoseconds (std::chrono::steady_clock). Distinct
// from SimClock, which is simulated time: span durations measure real
// compute cost even inside a simulation.
uint64_t MonotonicNanos();

struct TraceSpan {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  int depth = 0;       // Nesting level; 0 = direct child of the request.
  std::string note;    // Optional "key=value" annotations.
};

struct RequestTrace {
  uint64_t trace_id = 0;
  uint64_t session_id = 0;
  std::string path;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  bool blocked = false;
  std::string verdict;         // "", "human", "robot", "unknown".
  std::string verdict_source;  // Detector/signal behind the verdict.
  bool forced = false;         // Traced because the caller forced it, not by dice.
  std::vector<TraceSpan> spans;

  // Tail-sampling predicate: traces worth keeping under ring pressure.
  bool Interesting() const { return blocked || verdict == "robot"; }
};

class TraceRecorder {
 public:
  struct Config {
    size_t capacity = 128;
    // Head-sample one request in `sample_every`; 1 traces everything,
    // 0 traces nothing except forced requests.
    uint32_t sample_every = 64;
    // Injectable time source for deterministic tests.
    std::function<uint64_t()> now_ns;
  };

  // Span builder for one in-flight request. Obtained from Start(); spans
  // are recorded in call order and closed LIFO by SpanScope.
  class Trace {
   public:
    int OpenSpan(std::string_view name);
    void CloseSpan(int index);
    void AnnotateSpan(int index, std::string_view note);
    void set_session_id(uint64_t id) { record_.session_id = id; }
    void SetOutcome(bool blocked, std::string_view verdict, std::string_view source);

   private:
    friend class TraceRecorder;
    RequestTrace record_;
    TraceRecorder* owner_ = nullptr;
    int open_depth_ = 0;
  };

  explicit TraceRecorder(Config config);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Returns the span builder for this request, or nullptr when the
  // request is not sampled. Every non-null return must be paired with
  // Finish().
  Trace* Start(std::string_view path, bool force = false);
  void Finish(Trace* trace);

  // Copies the ring, oldest first.
  std::vector<RequestTrace> Snapshot() const;

  uint64_t started() const { return started_.load(std::memory_order_relaxed); }
  uint64_t evicted() const { return evicted_.load(std::memory_order_relaxed); }

 private:
  uint64_t Now() const { return config_.now_ns ? config_.now_ns() : MonotonicNanos(); }

  Config config_;
  std::atomic<uint64_t> request_counter_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> evicted_{0};
  mutable std::mutex mu_;
  std::deque<RequestTrace> ring_;
};

// RAII span: opens on construction (no-op when the request is untraced),
// closes on destruction.
class SpanScope {
 public:
  SpanScope(TraceRecorder::Trace* trace, std::string_view name) : trace_(trace) {
    if (trace_ != nullptr) {
      index_ = trace_->OpenSpan(name);
    }
  }
  ~SpanScope() {
    if (trace_ != nullptr) {
      trace_->CloseSpan(index_);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void Annotate(std::string_view note) {
    if (trace_ != nullptr) {
      trace_->AnnotateSpan(index_, note);
    }
  }

 private:
  TraceRecorder::Trace* trace_;
  int index_ = -1;
};

// RAII trace: starts the request's trace (if sampled) and finishes it on
// scope exit, handing the record to the ring.
class TraceScope {
 public:
  TraceScope(TraceRecorder* recorder, std::string_view path, bool force = false)
      : recorder_(recorder),
        trace_(recorder != nullptr ? recorder->Start(path, force) : nullptr) {}
  ~TraceScope() {
    if (trace_ != nullptr) {
      recorder_->Finish(trace_);
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  TraceRecorder::Trace* get() const { return trace_; }

 private:
  TraceRecorder* recorder_;
  TraceRecorder::Trace* trace_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_OBS_TRACE_H_
