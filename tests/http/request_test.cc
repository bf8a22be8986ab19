#include "src/http/request.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/rng.h"
#include "src/util/strings.h"

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

// The accept rule Parse keeps: split on '.', four parts, each a decimal
// run ParseU64 takes whole, at most 255.
std::optional<IpAddress> SplitParse(std::string_view dotted) {
  const std::vector<std::string> parts = Split(dotted, '.');
  if (parts.size() != 4) {
    return std::nullopt;
  }
  uint32_t v = 0;
  for (const std::string& p : parts) {
    const auto octet = ParseU64(p);
    if (!octet.has_value() || *octet > 255) {
      return std::nullopt;
    }
    v = (v << 8) | static_cast<uint32_t>(*octet);
  }
  return IpAddress(v);
}

struct ParseCase {
  const char* text;
  std::optional<uint32_t> value;
};

TEST(IpAddressTest, ParseTable) {
  const ParseCase cases[] = {
      {"0.0.0.0", 0u},
      {"255.255.255.255", 0xffffffffu},
      {"1.2.3.4", 0x01020304u},
      {"01.002.0003.000", 0x01020300u},                  // Leading zeros.
      {"000000000000000000000000001.2.3.4", 0x01020304u},  // An over-long zero run.
      {"", std::nullopt},
      {".", std::nullopt},
      {"...", std::nullopt},
      {"1..2.3", std::nullopt},    // Empty octets.
      {".1.2.3", std::nullopt},
      {"1.2.3.", std::nullopt},
      {"1.2.3", std::nullopt},     // 3 parts.
      {"1.2.3.4.5", std::nullopt},  // 5 parts.
      {"256.1.1.1", std::nullopt},
      {"1.1.1.256", std::nullopt},
      {"1.1.1.1000", std::nullopt},
      {"99999999999999999999999.1.1.1", std::nullopt},  // Over-long digits.
      {"1.2.3.4 ", std::nullopt},
      {" 1.2.3.4", std::nullopt},
      {"1.2.3.-4", std::nullopt},
      {"1.2.3.+4", std::nullopt},
      {"1.2.3.4a", std::nullopt},
      {"a.b.c.d", std::nullopt},
  };
  for (const ParseCase& c : cases) {
    const auto parsed = IpAddress::Parse(c.text);
    ASSERT_EQ(parsed.has_value(), c.value.has_value()) << "'" << c.text << "'";
    if (c.value.has_value()) {
      EXPECT_EQ(parsed->value(), *c.value) << "'" << c.text << "'";
    }
    EXPECT_EQ(parsed, SplitParse(c.text)) << "'" << c.text << "'";
  }
}

// Seeded dotted strings of 3 to 5 parts, each 0 to 4 bytes, mostly
// digits: Parse accepts exactly what the split-based rule does, with the
// same value.
TEST(IpAddressTest, ParseAcceptsWhatSplitParseAccepts) {
  Rng rng(17);
  constexpr std::string_view kAlphabet = "0123456789012345678901234567890123456789 a-";
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    const size_t parts = 3 + rng.UniformU64(3);
    for (size_t p = 0; p < parts; ++p) {
      if (p > 0) {
        text.push_back('.');
      }
      for (size_t k = rng.UniformU64(5); k > 0; --k) {
        text.push_back(kAlphabet[rng.UniformU64(kAlphabet.size())]);
      }
    }
    const auto parsed = IpAddress::Parse(text);
    ASSERT_EQ(parsed, SplitParse(text)) << "'" << text << "'";
    accepted += parsed.has_value() ? 1 : 0;
  }
  EXPECT_GT(accepted, 100);  // The sample reaches the accepting side.
}

TEST(IpAddressTest, ParseForwardedForTakesTheFirstElementTrimmed) {
  const ParseCase cases[] = {
      {"10.1.2.3", 0x0a010203u},
      {"  10.1.2.3  ", 0x0a010203u},
      {"\t10.1.2.3\t, 192.168.0.1", 0x0a010203u},
      {"10.1.2.3,192.168.0.1", 0x0a010203u},
      {"10.1.2.3 , garbage", 0x0a010203u},
      {"", std::nullopt},
      {" , 10.1.2.3", std::nullopt},  // An empty first element.
      {"10.1 .2.3", std::nullopt},    // Space inside the address.
      {"garbage, 10.1.2.3", std::nullopt},
      {"10.1.2.3.4, 1.1.1.1", std::nullopt},
  };
  for (const ParseCase& c : cases) {
    const auto parsed = IpAddress::ParseForwardedFor(c.text);
    ASSERT_EQ(parsed.has_value(), c.value.has_value()) << "'" << c.text << "'";
    if (c.value.has_value()) {
      EXPECT_EQ(parsed->value(), *c.value) << "'" << c.text << "'";
    }
  }
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
