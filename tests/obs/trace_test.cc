#include "src/obs/trace.h"

#include <string>

#include "gtest/gtest.h"

namespace robodet {
namespace {

// Deterministic time source: advances 100ns per query.
struct FakeClock {
  uint64_t now = 1000;
  uint64_t operator()() { return now += 100; }
};

TraceRecorder::Config ConfigWith(size_t capacity, uint32_t sample_every) {
  TraceRecorder::Config config;
  config.capacity = capacity;
  config.sample_every = sample_every;
  config.now_ns = FakeClock{};
  return config;
}

TEST(TraceRecorderTest, SamplesOneInN) {
  TraceRecorder recorder(ConfigWith(64, 4));
  int traced = 0;
  for (int i = 0; i < 16; ++i) {
    TraceRecorder::Trace* trace = recorder.Start("/p/1.html");
    if (trace != nullptr) {
      ++traced;
      recorder.Finish(trace);
    }
  }
  EXPECT_EQ(traced, 4);
  EXPECT_EQ(recorder.started(), 4u);
  EXPECT_EQ(recorder.Snapshot().size(), 4u);
}

TEST(TraceRecorderTest, ForceOverridesSampling) {
  TraceRecorder recorder(ConfigWith(64, 0));  // sample_every=0: dice never trace.
  EXPECT_EQ(recorder.Start("/a"), nullptr);
  TraceRecorder::Trace* trace = recorder.Start("/b", /*force=*/true);
  ASSERT_NE(trace, nullptr);
  recorder.Finish(trace);
  const std::vector<RequestTrace> traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].path, "/b");
  EXPECT_TRUE(traces[0].forced);
}

TEST(TraceRecorderTest, SpansRecordOrderDepthAndDuration) {
  TraceRecorder recorder(ConfigWith(8, 1));
  TraceRecorder::Trace* trace = recorder.Start("/page");
  ASSERT_NE(trace, nullptr);
  trace->set_session_id(7);
  const int outer = trace->OpenSpan("parse");
  const int inner = trace->OpenSpan("tokenize");
  trace->AnnotateSpan(inner, "tokens=42");
  trace->CloseSpan(inner);
  trace->CloseSpan(outer);
  recorder.Finish(trace);

  const std::vector<RequestTrace> traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& t = traces[0];
  EXPECT_EQ(t.session_id, 7u);
  EXPECT_GT(t.duration_ns, 0u);
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].name, "parse");
  EXPECT_EQ(t.spans[0].depth, 0);
  EXPECT_EQ(t.spans[1].name, "tokenize");
  EXPECT_EQ(t.spans[1].depth, 1);
  EXPECT_EQ(t.spans[1].note, "tokens=42");
  EXPECT_GT(t.spans[0].duration_ns, t.spans[1].duration_ns);
}

TEST(TraceRecorderTest, OutcomeMakesTraceInteresting) {
  RequestTrace plain;
  EXPECT_FALSE(plain.Interesting());
  RequestTrace blocked;
  blocked.blocked = true;
  EXPECT_TRUE(blocked.Interesting());
  RequestTrace robot;
  robot.verdict = "robot";
  EXPECT_TRUE(robot.Interesting());
}

TEST(TraceRecorderTest, RingEvictsOldestWhenFull) {
  TraceRecorder recorder(ConfigWith(3, 1));
  for (int i = 0; i < 5; ++i) {
    TraceRecorder::Trace* trace = recorder.Start("/p/" + std::to_string(i));
    ASSERT_NE(trace, nullptr);
    recorder.Finish(trace);
  }
  const std::vector<RequestTrace> traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].path, "/p/2");
  EXPECT_EQ(traces[2].path, "/p/4");
  EXPECT_EQ(recorder.evicted(), 2u);
}

TEST(TraceRecorderTest, TailSamplingPrefersEvictingBoringTraces) {
  TraceRecorder recorder(ConfigWith(3, 1));
  // Oldest trace is a blocked one — the interesting evidence.
  TraceRecorder::Trace* blocked = recorder.Start("/blocked");
  ASSERT_NE(blocked, nullptr);
  blocked->SetOutcome(true, "robot", "policy");
  recorder.Finish(blocked);
  for (int i = 0; i < 4; ++i) {
    TraceRecorder::Trace* trace = recorder.Start("/boring/" + std::to_string(i));
    ASSERT_NE(trace, nullptr);
    recorder.Finish(trace);
  }
  const std::vector<RequestTrace> traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 3u);
  // The blocked trace survived even though it was the oldest.
  EXPECT_EQ(traces[0].path, "/blocked");
  EXPECT_TRUE(traces[0].blocked);
  EXPECT_EQ(traces[0].verdict, "robot");
  EXPECT_EQ(traces[0].verdict_source, "policy");
}

TEST(TraceRecorderTest, AllInterestingFallsBackToFifo) {
  TraceRecorder recorder(ConfigWith(2, 1));
  for (int i = 0; i < 3; ++i) {
    TraceRecorder::Trace* trace = recorder.Start("/b/" + std::to_string(i));
    ASSERT_NE(trace, nullptr);
    trace->SetOutcome(true, "robot", "policy");
    recorder.Finish(trace);
  }
  const std::vector<RequestTrace> traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].path, "/b/1");
  EXPECT_EQ(traces[1].path, "/b/2");
}

TEST(TraceRecorderTest, ScopesAreNoopsWhenUnsampled) {
  TraceRecorder recorder(ConfigWith(8, 0));
  {
    TraceScope trace_scope(&recorder, "/untraced");
    EXPECT_EQ(trace_scope.get(), nullptr);
    SpanScope span(trace_scope.get(), "parse");
    span.Annotate("ignored");
  }
  {
    // Null recorder: the proxy runs with tracing disabled entirely.
    TraceScope trace_scope(nullptr, "/untraced");
    EXPECT_EQ(trace_scope.get(), nullptr);
  }
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(TraceRecorderTest, TraceScopeRecordsViaRaii) {
  TraceRecorder recorder(ConfigWith(8, 1));
  {
    TraceScope trace_scope(&recorder, "/raii", /*force=*/true);
    ASSERT_NE(trace_scope.get(), nullptr);
    SpanScope span(trace_scope.get(), "work");
  }
  const std::vector<RequestTrace> traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].path, "/raii");
  ASSERT_EQ(traces[0].spans.size(), 1u);
  EXPECT_EQ(traces[0].spans[0].name, "work");
}

}  // namespace
}  // namespace robodet
