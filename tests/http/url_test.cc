#include "src/http/url.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

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
  EXPECT_EQ(base.Resolve("#sec").ToString(), "http://a.com/x/y.html");
}

// A ref with no path keeps the base's query unless it has its own; the
// fragment goes either way (RFC 3986 §5.2.2).
TEST(UrlTest, ResolveRefWithoutPathKeepsBaseQuery) {
  const Url base = *Url::Parse("http://a.com/x/y.html?old=1#top");
  EXPECT_EQ(base.Resolve("#sec").ToString(), "http://a.com/x/y.html?old=1");
  EXPECT_EQ(base.Resolve("").ToString(), "http://a.com/x/y.html?old=1");
  EXPECT_EQ(base.Resolve("?new=2#sec").ToString(), "http://a.com/x/y.html?new=2");
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
  EXPECT_EQ(base.Resolve("#see=http://x.y/").ToString(), "http://www.example.com/dir/page.html");
}

// "//host/path" takes the base's scheme and names its own host.
TEST(UrlTest, ResolveSchemeRelative) {
  const Url base = *Url::Parse("http://www.example.com/dir/page.html");
  EXPECT_EQ(base.Resolve("//cdn.example.com/a.js").ToString(), "http://cdn.example.com/a.js");
  EXPECT_EQ(base.Resolve("//CDN.example.com:8080/a.js?v=1#top").ToString(),
            "http://cdn.example.com:8080/a.js?v=1");
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

// The examples of RFC 3986 §5.4.1 (normal) and §5.4.2 (abnormal), with
// the fragment removed from each result. Three cannot be held as written:
// "g:h" and "http:g" name no http(s) URL and resolve to the base, and
// "//g" has the empty path that this model spells "/".
TEST(UrlTest, ResolveRfc3986Examples) {
  const Url base = *Url::Parse("http://a/b/c/d;p?q");
  const std::pair<const char*, const char*> kExamples[] = {
      // §5.4.1
      {"g", "http://a/b/c/g"},
      {"./g", "http://a/b/c/g"},
      {"g/", "http://a/b/c/g/"},
      {"/g", "http://a/g"},
      {"//g", "http://g/"},
      {"?y", "http://a/b/c/d;p?y"},
      {"g?y", "http://a/b/c/g?y"},
      {"#s", "http://a/b/c/d;p?q"},
      {"g#s", "http://a/b/c/g"},
      {"g?y#s", "http://a/b/c/g?y"},
      {";x", "http://a/b/c/;x"},
      {"g;x", "http://a/b/c/g;x"},
      {"g;x?y#s", "http://a/b/c/g;x?y"},
      {"", "http://a/b/c/d;p?q"},
      {".", "http://a/b/c/"},
      {"./", "http://a/b/c/"},
      {"..", "http://a/b/"},
      {"../", "http://a/b/"},
      {"../g", "http://a/b/g"},
      {"../..", "http://a/"},
      {"../../", "http://a/"},
      {"../../g", "http://a/g"},
      // §5.4.2
      {"../../../g", "http://a/g"},
      {"../../../../g", "http://a/g"},
      {"/./g", "http://a/g"},
      {"/../g", "http://a/g"},
      {"g.", "http://a/b/c/g."},
      {".g", "http://a/b/c/.g"},
      {"g..", "http://a/b/c/g.."},
      {"..g", "http://a/b/c/..g"},
      {"./../g", "http://a/b/g"},
      {"./g/.", "http://a/b/c/g/"},
      {"g/./h", "http://a/b/c/g/h"},
      {"g/../h", "http://a/b/c/h"},
      {"g;x=1/./y", "http://a/b/c/g;x=1/y"},
      {"g;x=1/../y", "http://a/b/c/y"},
      {"g?y/./x", "http://a/b/c/g?y/./x"},
      {"g?y/../x", "http://a/b/c/g?y/../x"},
      {"g#s/./x", "http://a/b/c/g"},
      {"g#s/../x", "http://a/b/c/g"},
      {"http://a/b/c/./../g", "http://a/b/g"},
      {"//a/b/../g", "http://a/g"},
  };
  for (const auto& [ref, want] : kExamples) {
    EXPECT_EQ(base.Resolve(ref).ToString(), want) << ref;
    EXPECT_EQ(base.ResolveHash(ref), Fnv1a(want)) << ref;
  }
}

// A path longer than the stack buffer that dot-segment removal works in.
TEST(UrlTest, ResolveRemovesDotSegmentsFromALongPath) {
  const std::string dir = "/" + std::string(2000, 'd') + "/";
  const Url base = Url::Make("a.com", dir + "e/page.html");
  const std::string want = "http://a.com" + dir + "f/g.html";
  EXPECT_EQ(base.Resolve("../f/./g.html").ToString(), want);
  EXPECT_EQ(base.ResolveHash("../f/./g.html"), Fnv1a(want));
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
