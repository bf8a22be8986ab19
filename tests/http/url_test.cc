#include "src/http/url.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

TEST(UrlTest, ParseBasic) {
  const auto url = Url::Parse("http://www.example.com/index.html");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->host(), "www.example.com");
  EXPECT_EQ(url->path(), "/index.html");
  EXPECT_FALSE(url->has_query());
  EXPECT_EQ(url->ToString(), "http://www.example.com/index.html");  // Port 80 is the default.
}

TEST(UrlTest, ParseFull) {
  const auto url = Url::Parse("https://Host.Example.COM:8443/a/b.cgi?x=1&y=2#frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->host(), "host.example.com");  // Lowercased.
  EXPECT_EQ(url->path(), "/a/b.cgi");
  EXPECT_EQ(url->query(), "x=1&y=2");
  // Scheme, port and fragment survive into the canonical form.
  EXPECT_EQ(url->ToString(), "https://host.example.com:8443/a/b.cgi?x=1&y=2#frag");
}

TEST(UrlTest, ParseHostOnly) {
  const auto url = Url::Parse("http://example.com");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->path(), "/");
}

TEST(UrlTest, DefaultHttpsPort) {
  const auto url = Url::Parse("https://example.com/");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url, Url::Parse("https://example.com:443/"));
  EXPECT_NE(url, Url::Parse("https://example.com:80/"));
}

TEST(UrlTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Url::Parse("").has_value());
  EXPECT_FALSE(Url::Parse("not a url").has_value());
  EXPECT_FALSE(Url::Parse("ftp://example.com/").has_value());
  EXPECT_FALSE(Url::Parse("http://").has_value());
  EXPECT_FALSE(Url::Parse("http://exa mple.com/").has_value());
  EXPECT_FALSE(Url::Parse("http://example.com:0/").has_value());
  EXPECT_FALSE(Url::Parse("http://example.com:99999/").has_value());
  EXPECT_FALSE(Url::Parse("http://example.com:abc/").has_value());
  EXPECT_FALSE(Url::Parse("://example.com/").has_value());
}

TEST(UrlTest, EmptyQueryIsTracked) {
  const auto url = Url::Parse("http://e.com/p?");
  ASSERT_TRUE(url.has_value());
  EXPECT_TRUE(url->has_query());
  EXPECT_EQ(url->query(), "");
}

class UrlRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(UrlRoundTrip, ToStringRoundTrips) {
  const std::string raw = GetParam();
  const auto url = Url::Parse(raw);
  ASSERT_TRUE(url.has_value()) << raw;
  EXPECT_EQ(url->ToString(), raw);
  const auto again = Url::Parse(url->ToString());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *url);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, UrlRoundTrip,
    ::testing::Values("http://example.com/", "http://example.com/a/b/c.html",
                      "https://example.com/x?q=1", "http://example.com:8080/p",
                      "http://example.com/p?a=b&c=d#sec",
                      "http://sub.domain.example.com/deep/path/file.jpg",
                      "http://example.com/p/1.html#top"));

TEST(UrlTest, Extension) {
  EXPECT_EQ(Url::Parse("http://e.com/a/b.HTML")->Extension(), "html");
  EXPECT_EQ(Url::Parse("http://e.com/a/b")->Extension(), "");
  EXPECT_EQ(Url::Parse("http://e.com/")->Extension(), "");
  EXPECT_EQ(Url::Parse("http://e.com/x.tar.gz")->Extension(), "gz");
  EXPECT_EQ(Url::Parse("http://e.com/dot.")->Extension(), "");
}

TEST(UrlTest, Filename) {
  EXPECT_EQ(Url::Parse("http://e.com/a/b.css")->Filename(), "b.css");
  EXPECT_EQ(Url::Parse("http://e.com/")->Filename(), "");
  EXPECT_EQ(Url::Parse("http://e.com/dir/")->Filename(), "");
}

TEST(UrlTest, MakeBuildsUrl) {
  const Url url = Url::Make("Example.COM", "/p/1.html", "a=1");
  EXPECT_EQ(url.ToString(), "http://example.com/p/1.html?a=1");
}

TEST(UrlTest, ResolveAbsolute) {
  const Url base = Url::Make("a.com", "/x/y.html");
  const Url resolved = base.Resolve("http://b.com/z.html");
  EXPECT_EQ(resolved.host(), "b.com");
  EXPECT_EQ(resolved.path(), "/z.html");
}

TEST(UrlTest, ResolveHostRelative) {
  const Url base = Url::Make("a.com", "/x/y.html");
  EXPECT_EQ(base.Resolve("/img/i.jpg").ToString(), "http://a.com/img/i.jpg");
}

TEST(UrlTest, ResolvePathRelative) {
  const Url base = Url::Make("a.com", "/x/y.html");
  EXPECT_EQ(base.Resolve("z.html").ToString(), "http://a.com/x/z.html");
  EXPECT_EQ(base.Resolve("z.html?q=2").ToString(), "http://a.com/x/z.html?q=2");
}

TEST(UrlTest, ResolveQueryAndFragmentOnly) {
  const Url base = Url::Make("a.com", "/x/y.html");
  EXPECT_EQ(base.Resolve("?p=1").ToString(), "http://a.com/x/y.html?p=1");
  EXPECT_EQ(base.Resolve("#sec").ToString(), "http://a.com/x/y.html#sec");
}

TEST(UrlTest, ResolveDropsBaseQuery) {
  const Url base = *Url::Parse("http://a.com/x/y.html?old=1");
  EXPECT_EQ(base.Resolve("z.html").ToString(), "http://a.com/x/z.html");
}

}  // namespace
}  // namespace robodet
