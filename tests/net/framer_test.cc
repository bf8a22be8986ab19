// Incremental request framing: prefix discipline, keep-alive semantics,
// and the hostile-input rejections (oversized lines, header floods,
// smuggling vectors) that must die before any body byte is buffered.
#include "src/net/framer.h"

#include <gtest/gtest.h>

#include <string>

#include "src/http/wire.h"
#include "tests/http/response_reader.h"

namespace robodet {
namespace {

TEST(FramerTest, FramesSimpleGet) {
  const std::string text = "GET /page HTTP/1.1\r\nHost: h\r\n\r\n";
  const FramedRequest framed = FrameRequest(text);
  EXPECT_EQ(framed.status, FrameStatus::kComplete);
  EXPECT_EQ(framed.consumed, text.size());
  EXPECT_EQ(framed.body_bytes, 0u);
  EXPECT_TRUE(framed.http11);
  EXPECT_TRUE(framed.keep_alive);
  // The parts are views into the framed bytes.
  EXPECT_EQ(framed.method, Method::kGet);
  EXPECT_EQ(framed.target, "/page");
  ASSERT_EQ(framed.headers.size(), 1u);
  EXPECT_EQ(framed.headers[0].name, "Host");
  EXPECT_EQ(framed.headers[0].value, "h");
  EXPECT_EQ(framed.headers[0].value.data(), text.data() + text.find("h\r\n\r\n"));
}

TEST(FramerTest, EveryPrefixNeedsMore) {
  const std::string text = "GET / HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc";
  for (size_t cut = 0; cut < text.size(); ++cut) {
    const FramedRequest framed = FrameRequest(std::string_view(text).substr(0, cut));
    EXPECT_EQ(framed.status, FrameStatus::kNeedMore) << "cut at " << cut;
  }
  const FramedRequest full = FrameRequest(text);
  EXPECT_EQ(full.status, FrameStatus::kComplete);
  EXPECT_EQ(full.consumed, text.size());
  EXPECT_EQ(full.body_bytes, 3u);
}

TEST(FramerTest, ConsumesExactlyOnePipelinedRequest) {
  const std::string first = "GET /a HTTP/1.1\r\nHost: h\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\nHost: h\r\n\r\n";
  const FramedRequest framed = FrameRequest(first + second);
  EXPECT_EQ(framed.status, FrameStatus::kComplete);
  EXPECT_EQ(framed.consumed, first.size());
}

TEST(FramerTest, ConnectionSemantics) {
  const FramedRequest http10 = FrameRequest("GET / HTTP/1.0\r\nHost: h\r\n\r\n");
  EXPECT_FALSE(http10.http11);
  EXPECT_FALSE(http10.keep_alive);

  const FramedRequest http10_ka =
      FrameRequest("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_TRUE(http10_ka.keep_alive);

  const FramedRequest close_11 = FrameRequest("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_TRUE(close_11.http11);
  EXPECT_FALSE(close_11.keep_alive);

  // A close token wins over keep-alive, in one line or across two.
  const FramedRequest both_one_line =
      FrameRequest("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n");
  EXPECT_FALSE(both_one_line.keep_alive);
  const FramedRequest both_two_lines = FrameRequest(
      "GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n");
  EXPECT_FALSE(both_two_lines.keep_alive);
}

TEST(FramerTest, OversizedRequestLineRejected431) {
  // No newline yet, but already past any legal request line.
  const std::string flood(kMaxWireLineBytes + 1, 'A');
  const FramedRequest framed = FrameRequest(flood);
  EXPECT_EQ(framed.status, FrameStatus::kError);
  EXPECT_EQ(framed.error_status, StatusCode::kHeaderFieldsTooLarge);
}

TEST(FramerTest, HeaderFloodRejected431) {
  std::string text = "GET / HTTP/1.1\r\n";
  for (size_t i = 0; i <= kMaxWireHeaderCount; ++i) {
    text += "X-H" + std::to_string(i) + ": v\r\n";
  }
  text += "\r\n";
  const FramedRequest framed = FrameRequest(text);
  EXPECT_EQ(framed.status, FrameStatus::kError);
  EXPECT_EQ(framed.error_status, StatusCode::kHeaderFieldsTooLarge);
}

TEST(FramerTest, OversizedDeclaredBodyRejected413BeforeBuffering) {
  // Headers only — the framer must reject on the declaration, not wait
  // for 16MB+1 bytes to arrive.
  const std::string text = "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: " +
                           std::to_string(kMaxWireBodyBytes + 1) + "\r\n\r\n";
  const FramedRequest framed = FrameRequest(text);
  EXPECT_EQ(framed.status, FrameStatus::kError);
  EXPECT_EQ(framed.error_status, StatusCode::kPayloadTooLarge);
}

TEST(FramerTest, SmugglingVectorsRejected400) {
  // Conflicting Content-Length values.
  const FramedRequest conflict = FrameRequest(
      "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcde");
  EXPECT_EQ(conflict.status, FrameStatus::kError);
  EXPECT_EQ(conflict.error_status, StatusCode::kBadRequest);

  // Chunked request bodies are refused outright.
  const FramedRequest chunked = FrameRequest(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
  EXPECT_EQ(chunked.status, FrameStatus::kError);
  EXPECT_EQ(chunked.error_status, StatusCode::kBadRequest);

  // Malformed Content-Length.
  const FramedRequest garbage =
      FrameRequest("POST / HTTP/1.1\r\nContent-Length: 4x\r\n\r\n");
  EXPECT_EQ(garbage.status, FrameStatus::kError);
  EXPECT_EQ(garbage.error_status, StatusCode::kBadRequest);

  // RFC 9112 §5.1 and §5.2: a length header that only a trimming parser
  // reads, behind whitespace before its colon or as an obs-fold line, and
  // a colon-less line, all end the connection with 400 rather than being
  // skipped or trimmed.
  for (const char* text : {
           "POST / HTTP/1.1\r\nHost: h\r\nContent-Length : 5\r\n\r\nabcde",
           "POST / HTTP/1.1\r\nHost: h\r\nContent-Length\t: 5\r\n\r\nabcde",
           "POST / HTTP/1.1\r\nHost: h\r\n Content-Length: 5\r\n\r\nabcde",
           "POST / HTTP/1.1\r\nHost: h\r\n\tContent-Length: 5\r\n\r\nabcde",
           "GET / HTTP/1.1\r\nHost: h\r\nNoColonHere\r\n\r\n",
       }) {
    const FramedRequest framed = FrameRequest(text);
    EXPECT_EQ(framed.status, FrameStatus::kError) << text;
    EXPECT_EQ(framed.error_status, StatusCode::kBadRequest) << text;
  }

  // Duplicate but *agreeing* lengths are tolerated.
  const FramedRequest agree = FrameRequest(
      "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc");
  EXPECT_EQ(agree.status, FrameStatus::kComplete);
}

TEST(FramerTest, ErrorResponseIsFramingCorrect) {
  const std::string text =
      RenderErrorResponse(StatusCode::kHeaderFieldsTooLarge, "too big");
  EXPECT_NE(text.find("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            std::string::npos);
  EXPECT_NE(text.find("Connection: close\r\n"), std::string::npos);
  // A client reads it back with the body intact.
  const auto read = ReadResponseText(text).framed;
  ASSERT_TRUE(read.has_value()) << text;
  EXPECT_EQ(read->size, text.size());
  EXPECT_EQ(read->response.status, StatusCode::kHeaderFieldsTooLarge);
  EXPECT_EQ(read->response.body, "too big\n");
}

}  // namespace
}  // namespace robodet
