#include "src/http/request.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

TEST(IpAddressTest, Parse) {
  const auto ip = IpAddress::Parse("10.1.2.3");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->value(), (10u << 24) | (1u << 16) | (2u << 8) | 3u);
}

TEST(IpAddressTest, ParseRejectsInvalid) {
  EXPECT_FALSE(IpAddress::Parse("").has_value());
  EXPECT_FALSE(IpAddress::Parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IpAddress::Parse("256.1.1.1").has_value());
  EXPECT_FALSE(IpAddress::Parse("a.b.c.d").has_value());
}

TEST(IpAddressTest, Ordering) {
  EXPECT_LT(IpAddress(1), IpAddress(2));
  EXPECT_EQ(IpAddress(7), IpAddress(7));
}

TEST(RequestTest, HeaderAccessors) {
  Request r;
  EXPECT_EQ(r.UserAgent(), "");
  EXPECT_FALSE(r.HasReferrer());
  r.headers.Set("User-Agent", "TestBot/1.0");
  r.headers.Set("Referer", "http://a.com/");
  EXPECT_EQ(r.UserAgent(), "TestBot/1.0");
  EXPECT_EQ(r.Referrer(), "http://a.com/");
  EXPECT_TRUE(r.HasReferrer());
}

TEST(RequestTest, KindFromUrl) {
  Request r;
  r.url = *Url::Parse("http://e.com/style.css");
  EXPECT_EQ(r.Kind(), ResourceKind::kCss);
}

TEST(ResponseTest, IsHtml) {
  Response r = MakeHtmlResponse("<html></html>");
  EXPECT_TRUE(r.IsHtml());
  Response img = MakeResponse(StatusCode::kOk, ResourceKind::kImage, "x");
  EXPECT_FALSE(img.IsHtml());
}

TEST(ResponseTest, RedirectTarget) {
  const Url base = *Url::Parse("http://e.com/a/b.html");
  Response r = MakeRedirect(*Url::Parse("http://e.com/c.html"));
  EXPECT_EQ(r.status, StatusCode::kFound);
  const auto target = r.RedirectTarget(base);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->ToString(), "http://e.com/c.html");
}

TEST(ResponseTest, RedirectTargetRelativeLocation) {
  const Url base = *Url::Parse("http://e.com/a/b.html");
  Response r;
  r.status = StatusCode::kFound;
  r.headers.Set("Location", "/p/1.html");
  const auto target = r.RedirectTarget(base);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->ToString(), "http://e.com/p/1.html");
}

TEST(ResponseTest, NoRedirectTargetOn200OrMissingLocation) {
  const Url base = *Url::Parse("http://e.com/");
  EXPECT_FALSE(MakeHtmlResponse("x").RedirectTarget(base).has_value());
  Response r;
  r.status = StatusCode::kFound;
  EXPECT_FALSE(r.RedirectTarget(base).has_value());
}

TEST(ResponseTest, FactoriesSetContentLength) {
  Response r = MakeResponse(StatusCode::kOk, ResourceKind::kCss, "body");
  EXPECT_EQ(r.headers.Get("Content-Length"), "4");
  EXPECT_EQ(r.ContentType(), "text/css");
}

TEST(WireSizeTest, GrowsWithContent) {
  Response resp = MakeHtmlResponse("12345");
  const size_t rbase = resp.WireSize();
  resp.body += "67890";
  EXPECT_EQ(resp.WireSize(), rbase + 5);
}

}  // namespace
}  // namespace robodet
