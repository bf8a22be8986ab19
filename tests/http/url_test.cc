#include "src/http/url.h"

#include <gtest/gtest.h>

#include "src/util/hash.h"

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

// A ref is absolute only when it starts with a scheme and ':' (RFC 3986
// §3.1), so a "://" later in a relative ref's query is just query text.
TEST(UrlTest, ResolveRelativeRefWhoseQueryHoldsAUrl) {
  const Url base = *Url::Parse("http://www.example.com/dir/page.html");
  EXPECT_EQ(base.Resolve("/go?u=http://other.com/x").ToString(),
            "http://www.example.com/go?u=http://other.com/x");
  EXPECT_EQ(base.Resolve("next.html?to=https://a.b/").ToString(),
            "http://www.example.com/dir/next.html?to=https://a.b/");
  EXPECT_EQ(base.Resolve("#see=http://x.y/").ToString(),
            "http://www.example.com/dir/page.html#see=http://x.y/");
}

// "//host/path" takes the base's scheme and names its own host.
TEST(UrlTest, ResolveSchemeRelative) {
  const Url base = *Url::Parse("http://www.example.com/dir/page.html");
  EXPECT_EQ(base.Resolve("//cdn.example.com/a.js").ToString(), "http://cdn.example.com/a.js");
  EXPECT_EQ(base.Resolve("//CDN.example.com:8080/a.js?v=1#top").ToString(),
            "http://cdn.example.com:8080/a.js?v=1#top");
  EXPECT_EQ(base.Resolve("//cdn.example.com").ToString(), "http://cdn.example.com/");
  const Url secure = *Url::Parse("https://www.example.com/dir/page.html");
  EXPECT_EQ(secure.Resolve("//cdn.example.com/a.js").ToString(), "https://cdn.example.com/a.js");
  // No host, or a bad one: the base itself, as for a malformed absolute ref.
  EXPECT_EQ(base.Resolve("//").ToString(), base.ToString());
  EXPECT_EQ(base.Resolve("//bad host/a.js").ToString(), base.ToString());
}

TEST(UrlTest, ResolveAbsoluteNeedsSchemeThenColon) {
  const Url base = *Url::Parse("http://www.example.com/dir/page.html");
  EXPECT_EQ(base.Resolve("HTTP://B.example.com/z").ToString(), "http://b.example.com/z");
  EXPECT_EQ(base.Resolve("https://b.example.com:443/z").ToString(), "https://b.example.com/z");
  // Schemes Url cannot hold, and malformed absolute refs, resolve to the base.
  EXPECT_EQ(base.Resolve("mailto:someone@example.com").ToString(), base.ToString());
  EXPECT_EQ(base.Resolve("javascript:void(0)").ToString(), base.ToString());
  EXPECT_EQ(base.Resolve("http://").ToString(), base.ToString());
  // A ':' after a '/' or '?' does not make a scheme.
  EXPECT_EQ(base.Resolve("a/b:c.html").ToString(), "http://www.example.com/dir/a/b:c.html");
  EXPECT_EQ(base.Resolve("x.html?t=1:2").ToString(), "http://www.example.com/dir/x.html?t=1:2");
}

// Hash and ResolveHash hash the canonical form without building it.
TEST(UrlTest, HashesMatchTheCanonicalForm) {
  const Url base = *Url::Parse("https://Host.Example.COM:8443/a/b.cgi?x=1#frag");
  EXPECT_EQ(base.Hash(), Fnv1a(base.ToString()));
  for (const char* ref : {"", "?q", "#f", "c.html", "/d/e.html", "//cdn.example.com/a.js",
                          "http://Other.COM:80/p?", "/go?u=http://other.com/x", "mailto:x"}) {
    EXPECT_EQ(base.ResolveHash(ref), Fnv1a(base.Resolve(ref).ToString())) << ref;
  }
}

}  // namespace
}  // namespace robodet
