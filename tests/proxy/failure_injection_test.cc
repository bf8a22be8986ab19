// Failure injection against the proxy: hostile or broken inputs that a
// real open proxy sees daily — malformed origin HTML, replayed and forged
// beacon keys, out-of-order clocks, table pressure — must degrade
// detection gracefully, never crash or corrupt state.
#include <gtest/gtest.h>

#include "src/proxy/proxy_server.h"
#include "src/util/rng.h"

namespace robodet {
namespace {

constexpr char kUa[] = "Mozilla/5.0 (X11; Linux) Gecko/20060101 Firefox/1.5";

Request MakeRequest(const std::string& host, const std::string& path, IpAddress ip,
                    TimeMs time, const std::string& query = "") {
  Request r;
  r.time = time;
  r.client_ip = ip;
  r.url = Url::Make(host, path, query);
  r.headers.Set("User-Agent", kUa);
  return r;
}

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() {
    ProxyConfig config;
    config.host = "www.example.com";
    proxy_ = std::make_unique<ProxyServer>(
        config, &clock_, [this](const Request& r) { return origin_(r); }, 911);
  }

  // robodet_beacon_hits_total{result=...}: "ok" or "wrong_key".
  uint64_t BeaconHits(const std::string& result) const {
    return proxy_->metrics().Scrape().CounterValue("robodet_beacon_hits_total",
                                                   {{"result", result}});
  }

  SimClock clock_;
  std::function<Response(const Request&)> origin_ =
      [](const Request&) { return MakeHtmlResponse("<html><body>ok</body></html>"); };
  std::unique_ptr<ProxyServer> proxy_;
};

TEST_F(FailureInjectionTest, TruncatedOriginHtmlStillInstrumented) {
  origin_ = [](const Request&) {
    return MakeHtmlResponse("<html><body><a href=\"/x.html\" cl");
  };
  const auto result =
      proxy_->Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(1), 0));
  EXPECT_EQ(result.response.status, StatusCode::kOk);
  EXPECT_NE(result.response.body.find("/__rd/"), std::string::npos);
}

TEST_F(FailureInjectionTest, EmptyOriginBody) {
  origin_ = [](const Request&) { return MakeHtmlResponse(""); };
  const auto result =
      proxy_->Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(1), 0));
  EXPECT_EQ(result.response.status, StatusCode::kOk);
  // Probes are prepended/appended even to an empty document.
  EXPECT_NE(result.response.body.find("cp_"), std::string::npos);
}

TEST_F(FailureInjectionTest, BinaryGarbageAsHtml) {
  origin_ = [](const Request&) {
    std::string garbage;
    Rng rng(3);
    for (int i = 0; i < 4096; ++i) {
      garbage.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    return MakeHtmlResponse(std::move(garbage));
  };
  const auto result =
      proxy_->Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(1), 0));
  EXPECT_EQ(result.response.status, StatusCode::kOk);
}

TEST_F(FailureInjectionTest, BeaconKeyReplayWithinSameIpFails) {
  // Obtain a real key by instrumenting a page.
  proxy_->Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(1), 0));
  // Instead of parsing the page, drive the key table directly: record+match
  // semantics are what replay relies on.
  proxy_->keys().Record(IpAddress(1), "/p/1.html", "replaykey", 0);
  const auto first = proxy_->Handle(
      MakeRequest("www.example.com", "/__rd/bk_replaykey.jpg", IpAddress(1), 10));
  EXPECT_EQ(first.response.status, StatusCode::kOk);
  const uint64_t ok_before = BeaconHits("ok");
  const auto replay = proxy_->Handle(
      MakeRequest("www.example.com", "/__rd/bk_replaykey.jpg", IpAddress(1), 20));
  EXPECT_EQ(replay.response.status, StatusCode::kOk);  // Image still served...
  EXPECT_EQ(BeaconHits("ok"), ok_before);  // ...but no new proof.
  EXPECT_GE(BeaconHits("wrong_key"), 1u);
}

TEST_F(FailureInjectionTest, GarbageInstrumentedPathsAnswered) {
  for (const char* path : {"/__rd/", "/__rd/bk_.jpg", "/__rd/js_zz.js", "/__rd/cp_%%%.css",
                           "/__rd/unknown_thing", "/__rd/ua__.css",
                           "/__rd/hl_0123456789abcdef0123456789abcdef.html"}) {
    const auto result =
        proxy_->Handle(MakeRequest("www.example.com", path, IpAddress(2), 0));
    EXPECT_TRUE(Is2xx(result.response.status) || Is4xx(result.response.status)) << path;
  }
}

TEST_F(FailureInjectionTest, ClockGoingBackwardsIsHarmless) {
  proxy_->Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(3), 10000));
  // A request stamped earlier than the previous one (clock skew across
  // proxy nodes) must not split or corrupt the session.
  proxy_->Handle(MakeRequest("www.example.com", "/p/2.html", IpAddress(3), 5000));
  SessionState* session = proxy_->sessions().Touch(SessionKey{IpAddress(3), kUa}, 10000);
  EXPECT_EQ(session->request_count(), 2);
  EXPECT_EQ(session->last_request_time(), 10000);
}

TEST_F(FailureInjectionTest, ManyIpsDoNotExplodeTables) {
  // A /16 worth of one-request clients (address-sweeping scanner).
  for (uint32_t i = 0; i < 20000; ++i) {
    proxy_->Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(0x0b000000u + i),
                               static_cast<TimeMs>(i)));
  }
  EXPECT_LE(proxy_->keys().total_entries(), size_t{1} << 20);
  EXPECT_LE(proxy_->sessions().active_count(), size_t{1} << 20);
}

TEST_F(FailureInjectionTest, HeadRequestsNotInstrumented) {
  Request head = MakeRequest("www.example.com", "/p/1.html", IpAddress(4), 0);
  head.method = Method::kHead;
  const auto result = proxy_->Handle(head);
  EXPECT_EQ(result.response.body.find("/__rd/"), std::string::npos);
}

TEST_F(FailureInjectionTest, OriginErrorsPassThroughUninstrumented) {
  origin_ = [](const Request&) {
    return MakeResponse(StatusCode::kInternalServerError, ResourceKind::kHtml,
                        "<html><body>boom</body></html>");
  };
  const auto result =
      proxy_->Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(5), 0));
  EXPECT_EQ(result.response.status, StatusCode::kInternalServerError);
  EXPECT_EQ(result.response.body.find("/__rd/"), std::string::npos);
  EXPECT_EQ(result.degraded, DegradationLevel::kPassThrough);
}

TEST_F(FailureInjectionTest, OriginTimeoutMidSession) {
  ProxyConfig config;
  config.host = "www.example.com";
  SimClock clock;
  bool fail = false;
  ProxyServer proxy(config, &clock,
                    FallibleOriginHandler([&fail](const Request&) {
                      if (fail) {
                        return OriginResult::Fail(OriginErrorKind::kTimeout, 5 * kSecond);
                      }
                      return OriginResult::Ok(
                          MakeHtmlResponse("<html><body>ok</body></html>"), 5);
                    }),
                    911);

  const auto first =
      proxy.Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(6), 0));
  EXPECT_EQ(first.response.status, StatusCode::kOk);
  EXPECT_EQ(first.degraded, DegradationLevel::kFull);

  // Origin goes dark mid-session: the client gets a synthesized 504, the
  // session survives, and the degradation decision is on the books.
  fail = true;
  const auto second =
      proxy.Handle(MakeRequest("www.example.com", "/p/2.html", IpAddress(6), 1000));
  EXPECT_EQ(second.response.status, StatusCode::kGatewayTimeout);
  EXPECT_EQ(second.degraded, DegradationLevel::kPassThrough);
  EXPECT_EQ(second.response.body.find("/__rd/"), std::string::npos);
  const RegistrySnapshot snapshot = proxy.metrics().Scrape();
  EXPECT_GE(snapshot.CounterValue("robodet_degraded_total", {{"level", "pass_through"}}), 1u);
  EXPECT_GE(snapshot.CounterValue("robodet_origin_fetch_total", {{"outcome", "timeout"}}), 1u);
  SessionState* session = proxy.sessions().Touch(SessionKey{IpAddress(6), kUa}, 1000);
  EXPECT_EQ(session->request_count(), 2);
}

TEST_F(FailureInjectionTest, ClockBackwardsAcrossBeaconPair) {
  // A page instrumented at t=10000 issues a beacon key...
  const auto page =
      proxy_->Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(7), 10000));
  EXPECT_EQ(page.response.status, StatusCode::kOk);
  EXPECT_EQ(page.degraded, DegradationLevel::kFull);
  proxy_->keys().Record(IpAddress(7), "/p/1.html", "skewkey", 10000);
  // ...and the matching beacon hit arrives stamped *earlier* (clock skew
  // across proxy nodes). The key must still count as live, not expired.
  const auto beacon = proxy_->Handle(
      MakeRequest("www.example.com", "/__rd/bk_skewkey.jpg", IpAddress(7), 4000));
  EXPECT_EQ(beacon.response.status, StatusCode::kOk);
  const RegistrySnapshot snapshot = proxy_->metrics().Scrape();
  EXPECT_GE(snapshot.CounterValue("robodet_beacon_hits_total", {{"result", "ok"}}), 1u);
  EXPECT_GE(snapshot.CounterValue("robodet_degraded_total", {{"level", "full"}}), 1u);
}

TEST_F(FailureInjectionTest, OversizedOriginBodyHitsCap) {
  ProxyConfig config;
  config.host = "www.example.com";
  config.resilience.max_body_bytes = 64 * 1024;
  SimClock clock;
  ProxyServer proxy(config, &clock,
                    FallibleOriginHandler([](const Request&) {
                      std::string body = "<html><body>";
                      body.append(100 * 1024, 'x');
                      body += "</body></html>";
                      return OriginResult::Ok(MakeHtmlResponse(std::move(body)), 5);
                    }),
                    911);
  const auto result =
      proxy.Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(8), 0));
  // Delivered but untrustworthy: served pass-through, never rewritten.
  EXPECT_EQ(result.response.status, StatusCode::kOk);
  EXPECT_EQ(result.degraded, DegradationLevel::kPassThrough);
  EXPECT_EQ(result.response.body.find("/__rd/"), std::string::npos);
  const RegistrySnapshot snapshot = proxy.metrics().Scrape();
  EXPECT_EQ(
      snapshot.CounterValue("robodet_origin_fetch_total", {{"outcome", "oversized_body"}}),
      1u);
}

TEST_F(FailureInjectionTest, LyingContentTypeServedPassThrough) {
  ProxyConfig config;
  config.host = "www.example.com";
  SimClock clock;
  ProxyServer proxy(config, &clock,
                    FallibleOriginHandler([](const Request&) {
                      // Claims text/html, delivers flat binary.
                      return OriginResult::Ok(MakeHtmlResponse(std::string(512, '\x01')), 5);
                    }),
                    911);
  const auto result =
      proxy.Handle(MakeRequest("www.example.com", "/p/1.html", IpAddress(9), 0));
  EXPECT_EQ(result.response.status, StatusCode::kOk);
  EXPECT_EQ(result.degraded, DegradationLevel::kPassThrough);
  EXPECT_EQ(result.response.body.find("/__rd/"), std::string::npos);
  const RegistrySnapshot snapshot = proxy.metrics().Scrape();
  EXPECT_EQ(
      snapshot.CounterValue("robodet_origin_fetch_total", {{"outcome", "bad_content_type"}}),
      1u);
}

}  // namespace
}  // namespace robodet
