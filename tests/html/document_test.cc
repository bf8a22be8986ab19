#include "src/html/document.h"

#include <gtest/gtest.h>

#include "src/html/injector.h"
#include "src/html/tokenizer.h"

namespace robodet {
namespace {

constexpr const char* kPage = R"(
<html><head>
<link rel="stylesheet" type="text/css" href="/s.css">
<script src="/app.js"></script>
</head>
<body onmousemove="return f();">
<a href="/visible.html">Click me</a>
<a href="/hidden.html"><img src="/t.jpg" width="1" height="1"></a>
<a href="/also-visible.html"><img src="/banner.jpg" width="400" height="60"></a>
<img src="/photo.jpg">
<script>var x = 1;</script>
</body></html>
)";

TEST(HtmlDocumentTest, LinksAndHiddenness) {
  HtmlDocument doc{std::string_view(kPage)};
  const auto links = doc.Links();
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links[0].href, "/visible.html");
  EXPECT_FALSE(links[0].hidden);
  EXPECT_EQ(links[1].href, "/hidden.html");
  EXPECT_TRUE(links[1].hidden);
  EXPECT_EQ(links[2].href, "/also-visible.html");
  EXPECT_FALSE(links[2].hidden);
}

TEST(HtmlDocumentTest, VisibleLinksExcludesHidden) {
  HtmlDocument doc{std::string_view(kPage)};
  const auto visible = doc.VisibleLinks();
  ASSERT_EQ(visible.size(), 2u);
  EXPECT_EQ(visible[0].href, "/visible.html");
  EXPECT_EQ(visible[1].href, "/also-visible.html");
}

TEST(HtmlDocumentTest, EmbeddedObjects) {
  HtmlDocument doc{std::string_view(kPage)};
  const auto embeds = doc.EmbeddedObjects();
  // css, script, 1x1 img, banner img, photo img.
  ASSERT_EQ(embeds.size(), 5u);
  EXPECT_EQ(embeds[0].kind, EmbedRef::Kind::kCss);
  EXPECT_EQ(embeds[0].url, "/s.css");
  EXPECT_EQ(embeds[1].kind, EmbedRef::Kind::kScript);
  EXPECT_EQ(embeds[1].url, "/app.js");
}

TEST(HtmlDocumentTest, InlineScripts) {
  HtmlDocument doc{std::string_view(kPage)};
  const auto scripts = doc.InlineScripts();
  ASSERT_EQ(scripts.size(), 1u);
  EXPECT_EQ(scripts[0], "var x = 1;");
}

TEST(HtmlDocumentTest, ExternalScriptIsNotInline) {
  HtmlDocument doc("<script src=\"/x.js\"></script>");
  EXPECT_TRUE(doc.InlineScripts().empty());
}

TEST(HtmlDocumentTest, BodyEventHandler) {
  HtmlDocument doc{std::string_view(kPage)};
  EXPECT_EQ(doc.BodyEventHandler(), "return f();");
}

TEST(HtmlDocumentTest, NoBodyNoHandler) {
  HtmlDocument doc("<p>no body</p>");
  EXPECT_EQ(doc.BodyEventHandler(), "");
}

TEST(HtmlDocumentTest, AnchorWithoutHrefIgnored) {
  HtmlDocument doc("<a name=\"anchor\">x</a><a href=\"/y.html\">y</a>");
  EXPECT_EQ(doc.Links().size(), 1u);
}

TEST(HtmlDocumentTest, EmptyAnchorIsNotHidden) {
  // An anchor with no content at all renders nothing clickable; we treat it
  // as not hidden (it has no content to judge by).
  HtmlDocument doc("<a href=\"/e.html\"></a>");
  const auto links = doc.Links();
  ASSERT_EQ(links.size(), 1u);
  EXPECT_FALSE(links[0].hidden);
}

TEST(HtmlDocumentTest, OnclickCaptured) {
  HtmlDocument doc("<a href=\"/x.html\" onclick=\"return f();\">go</a>");
  const auto links = doc.Links();
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].onclick, "return f();");
}

// An upper-case </SCRIPT>, common in 2006-era pages, ends the script as it
// does in every browser: the rest of the page is markup, not script text.
TEST(HtmlDocumentTest, UpperCaseCloseTagEndsScript) {
  constexpr std::string_view kUpperCasePage =
      "<html><head><SCRIPT>var x = 1;</SCRIPT></head><body><a href=\"/next.html\">next</a>"
      "<img src=\"/i.jpg\"></body></html>";
  const HtmlDocument doc(kUpperCasePage);
  ASSERT_EQ(doc.Links().size(), 1u);
  EXPECT_EQ(doc.Links()[0].href, "/next.html");
  ASSERT_EQ(doc.EmbeddedObjects().size(), 1u);
  EXPECT_EQ(doc.EmbeddedObjects()[0].url, "/i.jpg");
  ASSERT_EQ(doc.InlineScripts().size(), 1u);
  EXPECT_EQ(doc.InlineScripts()[0], "var x = 1;");

  const ServedRefs refs = CollectServedRefs(kUpperCasePage);
  EXPECT_EQ(refs.links.size(), 1u);
  EXPECT_EQ(refs.embeds.size(), 1u);

  InjectionPlan plan;
  plan.mouse_handler_code = "return f();";
  const HtmlDocument instrumented(InstrumentHtml(kUpperCasePage, plan).html);
  EXPECT_EQ(instrumented.BodyEventHandler(), "return f();");
}

TEST(HtmlDocumentTest, SerializedTokensRoundTrip) {
  std::string serialized;
  HtmlTokenStream stream(kPage);
  HtmlTokenView v;
  while (stream.Next(v)) {
    AppendTokenView(serialized, v);
  }
  HtmlDocument doc{std::string_view(kPage)};
  HtmlDocument doc2(serialized);
  EXPECT_EQ(doc.Links().size(), doc2.Links().size());
  EXPECT_EQ(doc.EmbeddedObjects().size(), doc2.EmbeddedObjects().size());
}

}  // namespace
}  // namespace robodet
