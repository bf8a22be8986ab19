#include "src/obs/trace.h"

#include <chrono>

namespace robodet {

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

int TraceRecorder::Trace::OpenSpan(std::string_view name) {
  TraceSpan span;
  span.name = std::string(name);
  span.start_ns = owner_->Now();
  span.depth = open_depth_;
  ++open_depth_;
  record_.spans.push_back(std::move(span));
  return static_cast<int>(record_.spans.size()) - 1;
}

void TraceRecorder::Trace::CloseSpan(int index) {
  if (index < 0 || static_cast<size_t>(index) >= record_.spans.size()) {
    return;
  }
  TraceSpan& span = record_.spans[static_cast<size_t>(index)];
  span.duration_ns = owner_->Now() - span.start_ns;
  if (open_depth_ > 0) {
    --open_depth_;
  }
}

void TraceRecorder::Trace::AnnotateSpan(int index, std::string_view note) {
  if (index < 0 || static_cast<size_t>(index) >= record_.spans.size()) {
    return;
  }
  std::string& existing = record_.spans[static_cast<size_t>(index)].note;
  if (!existing.empty()) {
    existing += ' ';
  }
  existing += std::string(note);
}

void TraceRecorder::Trace::SetOutcome(bool blocked, std::string_view verdict,
                                      std::string_view source) {
  record_.blocked = blocked;
  record_.verdict = std::string(verdict);
  record_.verdict_source = std::string(source);
}

TraceRecorder::TraceRecorder(Config config) : config_(config) {
  if (config_.capacity == 0) {
    config_.capacity = 1;
  }
}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::Trace* TraceRecorder::Start(std::string_view path, bool force) {
  const uint64_t seq = request_counter_.fetch_add(1, std::memory_order_relaxed);
  const bool sampled = config_.sample_every != 0 && seq % config_.sample_every == 0;
  if (!sampled && !force) {
    return nullptr;
  }
  auto* trace = new Trace();
  trace->owner_ = this;
  trace->record_.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  trace->record_.path = std::string(path);
  trace->record_.start_ns = Now();
  trace->record_.forced = force && !sampled;
  started_.fetch_add(1, std::memory_order_relaxed);
  return trace;
}

void TraceRecorder::Finish(Trace* trace) {
  if (trace == nullptr) {
    return;
  }
  trace->record_.duration_ns = Now() - trace->record_.start_ns;
  RequestTrace record = std::move(trace->record_);
  delete trace;

  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= config_.capacity) {
    // Tail-sampling eviction: drop the oldest ordinary trace first; only
    // when every retained trace is interesting does age alone decide.
    auto victim = ring_.end();
    for (auto it = ring_.begin(); it != ring_.end(); ++it) {
      if (!it->Interesting()) {
        victim = it;
        break;
      }
    }
    if (victim == ring_.end()) {
      victim = ring_.begin();
    }
    ring_.erase(victim);
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  ring_.push_back(std::move(record));
}

std::vector<RequestTrace> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

}  // namespace robodet
