#include "src/http/wire.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/proxy/proxy_server.h"
#include "tests/http/response_reader.h"

namespace robodet {
namespace {

TEST(WireRequestTest, OriginFormWithHost) {
  const auto result = ParseRequestText(
      "GET /p/1.html?q=2 HTTP/1.1\r\n"
      "Host: www.example.com\r\n"
      "User-Agent: TestUA/1.0\r\n"
      "Referer: http://www.example.com/\r\n"
      "\r\n");
  ASSERT_TRUE(result) << result.error.message;
  const Request& r = *result.value;
  EXPECT_EQ(r.method, Method::kGet);
  EXPECT_EQ(r.url.ToString(), "http://www.example.com/p/1.html?q=2");
  EXPECT_EQ(r.UserAgent(), "TestUA/1.0");
  EXPECT_TRUE(r.HasReferrer());
}

TEST(WireRequestTest, AbsoluteFormProxyRequest) {
  const auto result = ParseRequestText(
      "GET http://origin.example.net:8080/x.css HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(result) << result.error.message;
  EXPECT_EQ(result.value->url.host(), "origin.example.net");
  EXPECT_EQ(result.value->url.ToString(), "http://origin.example.net:8080/x.css");
}

TEST(WireRequestTest, HostWithPort) {
  const auto result = ParseRequestText(
      "HEAD /x HTTP/1.1\r\nHost: example.com:8080\r\n\r\n");
  ASSERT_TRUE(result) << result.error.message;
  EXPECT_EQ(result.value->method, Method::kHead);
  EXPECT_EQ(result.value->url.ToString(), "http://example.com:8080/x");
}

TEST(WireRequestTest, BareLfTolerated) {
  const auto result = ParseRequestText("GET / HTTP/1.1\nHost: e.com\n\n");
  ASSERT_TRUE(result) << result.error.message;
  EXPECT_EQ(result.value->url.host(), "e.com");
}

TEST(WireRequestTest, Errors) {
  EXPECT_FALSE(ParseRequestText(""));
  EXPECT_FALSE(ParseRequestText("GET /\r\n\r\n"));                      // 2 tokens.
  EXPECT_FALSE(ParseRequestText("FROB / HTTP/1.1\r\n\r\n"));            // Method.
  EXPECT_FALSE(ParseRequestText("GET / SPDY/3\r\n\r\n"));               // Version.
  EXPECT_FALSE(ParseRequestText("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"));
  EXPECT_FALSE(ParseRequestText("GET / HTTP/1.1\r\nHost: e.com\r\n"));  // No blank line.
  EXPECT_FALSE(ParseRequestText("GET / HTTP/1.1\r\n\r\n"));             // No Host.
  EXPECT_FALSE(ParseRequestText("GET relative HTTP/1.1\r\nHost: e\r\n\r\n"));
  const auto err = ParseRequestText("GET / HTTP/1.1\r\nBad Header: x\r\n\r\n");
  ASSERT_FALSE(err);
  EXPECT_FALSE(err.error.message.empty());
  // RFC 9112 §5.1: whitespace between a field name and its colon.
  EXPECT_FALSE(ParseRequestText(
      "POST / HTTP/1.1\r\nHost: e.com\r\nContent-Length : 5\r\n\r\nabcde"));
  EXPECT_FALSE(ParseRequestText("GET / HTTP/1.1\r\nHost\t: e.com\r\n\r\n"));
  // RFC 9112 §5.2: obs-fold, a line that starts with SP or HTAB.
  EXPECT_FALSE(ParseRequestText(
      "POST / HTTP/1.1\r\nHost: e.com\r\n Content-Length: 5\r\n\r\nabcde"));
  EXPECT_FALSE(ParseRequestText("GET / HTTP/1.1\r\nHost: e.com\r\nX-A: b\r\n\tc\r\n\r\n"));
  // A colon-less line among valid ones, on either side of the Host line.
  EXPECT_FALSE(ParseRequestText("GET / HTTP/1.1\r\nHost: e.com\r\nNoColonHere\r\n\r\n"));
  // Bytes past the declared body belong to no message this text holds.
  EXPECT_FALSE(ParseRequestText("GET / HTTP/1.1\r\nHost: e.com\r\n\r\nextra"));
}

TEST(WireKeepAliveTest, ConnectionHeaderSemantics) {
  const std::vector<HeaderField> none;
  EXPECT_TRUE(WantKeepAlive(none, /*http11=*/true));
  EXPECT_FALSE(WantKeepAlive(none, /*http11=*/false));
  const std::vector<HeaderField> close{{"Connection", "close"}};
  EXPECT_FALSE(WantKeepAlive(close, true));
  const std::vector<HeaderField> keep{{"Connection", "keep-alive"}};
  EXPECT_TRUE(WantKeepAlive(keep, false));
  const std::vector<HeaderField> mixed{{"Connection", "Keep-Alive, Upgrade"}};
  EXPECT_TRUE(WantKeepAlive(mixed, false));
  const std::vector<HeaderField> shouty{{"Connection", "CLOSE"}};
  EXPECT_FALSE(WantKeepAlive(shouty, true));
}

TEST(WireKeepAliveTest, CloseWinsOverKeepAlive) {
  // RFC 9112 §9.3: a close token anywhere means close.
  const std::vector<HeaderField> one_line{{"Connection", "keep-alive, close"}};
  EXPECT_FALSE(WantKeepAlive(one_line, true));
  EXPECT_FALSE(WantKeepAlive(one_line, false));
  const std::vector<HeaderField> two_lines{{"Connection", "keep-alive"},
                                           {"Connection", "close"}};
  EXPECT_FALSE(WantKeepAlive(two_lines, true));
  EXPECT_FALSE(WantKeepAlive(two_lines, false));
}

TEST(WireRoundTripTest, ResponseSurvives) {
  Response response = MakeHtmlResponse("<html><body>x</body></html>");
  response.headers.Set("Cache-Control", "no-cache, no-store");
  const std::string wire = SerializeResponse(response);
  const auto read = ReadResponseText(wire).framed;
  ASSERT_TRUE(read.has_value()) << wire;
  EXPECT_EQ(read->size, wire.size());
  EXPECT_EQ(read->response.status, response.status);
  EXPECT_EQ(read->response.body, response.body);
  EXPECT_EQ(read->response.headers.Get("Cache-Control"), "no-cache, no-store");
}

TEST(WireRoundTripTest, SerializeReplacesStaleFraming) {
  // A response whose headers lie about the body (stale Content-Length from
  // an upstream rewrite, leftover Transfer-Encoding) serializes with the
  // *actual* length, so a reader recovers the full body.
  Response response;
  response.status = StatusCode::kOk;
  response.headers.Set("Content-Length", "3");
  response.headers.Set("Transfer-Encoding", "chunked");
  response.headers.Set("Connection", "keep-alive");
  response.body = "twelve bytes";
  const std::string wire = SerializeResponse(response);
  const auto read = ReadResponseText(wire).framed;
  ASSERT_TRUE(read.has_value()) << wire;
  EXPECT_EQ(read->size, wire.size());
  EXPECT_EQ(read->response.body, "twelve bytes");
  EXPECT_EQ(read->response.headers.Get("Content-Length"), "12");
  EXPECT_FALSE(read->response.headers.Has("Transfer-Encoding"));
  EXPECT_EQ(read->response.headers.Get("Connection"), "keep-alive");
}

TEST(WireRoundTripTest, EmptyBodyFraming) {
  // A 200 with no body still states Content-Length: 0 (keep-alive framing);
  // bodyless statuses omit it entirely.
  Response ok;
  EXPECT_NE(SerializeResponse(ok).find("Content-Length: 0"), std::string::npos);
  Response no_content;
  no_content.status = StatusCode::kNoContent;
  EXPECT_EQ(SerializeResponse(no_content).find("Content-Length"), std::string::npos);
  Response not_modified;
  not_modified.status = StatusCode::kNotModified;
  EXPECT_EQ(SerializeResponse(not_modified).find("Content-Length"), std::string::npos);
}

// The adoption path: raw wire request in, proxy verdict machinery engaged.
TEST(WireIntegrationTest, ParsedRequestDrivesProxy) {
  SimClock clock;
  ProxyConfig config;
  config.host = "www.example.com";
  ProxyServer proxy(config, &clock,
                    [](const Request&) {
                      return MakeHtmlResponse("<html><body><p>hi</p></body></html>");
                    },
                    3);
  const auto parsed = ParseRequestText(
      "GET /index.html HTTP/1.1\r\n"
      "Host: www.example.com\r\n"
      "User-Agent: Mozilla/5.0\r\n"
      "\r\n");
  ASSERT_TRUE(parsed) << parsed.error.message;
  Request request = *parsed.value;
  request.client_ip = IpAddress(42);
  request.time = clock.Now();
  const auto result = proxy.Handle(request);
  EXPECT_EQ(result.response.status, StatusCode::kOk);
  EXPECT_NE(result.response.body.find("/__rd/"), std::string::npos);
  // And the instrumented response serializes back to valid wire bytes.
  const std::string wire = SerializeResponse(result.response);
  const auto read = ReadResponseText(wire).framed;
  ASSERT_TRUE(read.has_value()) << wire;
  EXPECT_EQ(read->size, wire.size());
}

}  // namespace
}  // namespace robodet
