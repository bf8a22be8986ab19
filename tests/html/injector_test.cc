#include "src/html/injector.h"

#include <gtest/gtest.h>

#include "src/html/document.h"

namespace robodet {
namespace {

constexpr const char* kPage =
    "<html><head><title>T</title></head>"
    "<body><p>content</p><a href=\"/x.html\">link</a></body></html>";

InjectionPlan FullPlan() {
  InjectionPlan plan;
  plan.beacon_script_url = "http://e.com/__rd/js_tok.js";
  plan.mouse_handler_code = "return d();";
  plan.ua_echo_script = "var a = navigator.userAgent;";
  plan.css_probe_url = "http://e.com/__rd/cp_tok.css";
  plan.hidden_link_url = "http://e.com/__rd/hl_tok.html";
  plan.transparent_image_url = "http://e.com/__rd/ti.jpg";
  return plan;
}

TEST(InjectorTest, AllInjectionsLand) {
  const InjectionResult result = InstrumentHtml(kPage, FullPlan());
  EXPECT_GT(result.added_bytes, 0u);

  HtmlDocument doc(result.html);
  EXPECT_EQ(doc.BodyEventHandler(), "return d();");

  bool saw_script = false;
  bool saw_probe = false;
  for (const EmbedRef& e : doc.EmbeddedObjects()) {
    saw_script |= e.kind == EmbedRef::Kind::kScript && e.url == "http://e.com/__rd/js_tok.js";
    saw_probe |= e.kind == EmbedRef::Kind::kCss && e.url == "http://e.com/__rd/cp_tok.css";
  }
  EXPECT_TRUE(saw_script);
  EXPECT_TRUE(saw_probe);

  // The hidden link is present and detected as hidden.
  bool saw_hidden = false;
  for (const LinkRef& link : doc.Links()) {
    if (link.href == "http://e.com/__rd/hl_tok.html") {
      saw_hidden = true;
      EXPECT_TRUE(link.hidden);
    }
  }
  EXPECT_TRUE(saw_hidden);

  const auto inline_scripts = doc.InlineScripts();
  ASSERT_EQ(inline_scripts.size(), 1u);
  EXPECT_EQ(inline_scripts[0], "var a = navigator.userAgent;");
}

TEST(InjectorTest, OriginalContentPreserved) {
  const InjectionResult result = InstrumentHtml(kPage, FullPlan());
  EXPECT_NE(result.html.find("<p>content</p>"), std::string::npos);
  EXPECT_NE(result.html.find("<title>T</title>"), std::string::npos);
  HtmlDocument doc(result.html);
  bool original_link = false;
  for (const LinkRef& link : doc.Links()) {
    original_link |= link.href == "/x.html" && !link.hidden;
  }
  EXPECT_TRUE(original_link);
}

TEST(InjectorTest, EmptyPlanIsIdentityModuloSerialization) {
  const InjectionResult result = InstrumentHtml(kPage, InjectionPlan{});
  // kPage is already in normalized form, so nothing changes.
  EXPECT_EQ(result.html, kPage);
  EXPECT_EQ(result.added_bytes, 0u);
  HtmlDocument before{std::string_view(kPage)};
  HtmlDocument after(result.html);
  EXPECT_EQ(before.Links().size(), after.Links().size());
  EXPECT_EQ(before.EmbeddedObjects().size(), after.EmbeddedObjects().size());
}

TEST(InjectorTest, NoBodyTagSkipsMouseHandler) {
  InjectionPlan plan = FullPlan();
  const InjectionResult result = InstrumentHtml("<p>fragment only</p>", plan);
  EXPECT_EQ(result.html.find("onmousemove"), std::string::npos) << result.html;
  // Everything else still lands (prepended / appended).
  HtmlDocument doc(result.html);
  EXPECT_EQ(doc.BodyEventHandler(), "");
  ASSERT_FALSE(doc.EmbeddedObjects().empty());
  EXPECT_EQ(doc.EmbeddedObjects()[0].url, "http://e.com/__rd/js_tok.js");
  ASSERT_EQ(doc.Links().size(), 1u);
  EXPECT_EQ(doc.Links()[0].href, "http://e.com/__rd/hl_tok.html");
  EXPECT_EQ(doc.InlineScripts().size(), 1u);
}

TEST(InjectorTest, NoHeadInsertsBeforeBody) {
  const InjectionResult result =
      InstrumentHtml("<html><body><p>x</p></body></html>", FullPlan());
  // Script must appear before the body content in the serialized output.
  const size_t script_pos = result.html.find("js_tok.js");
  const size_t content_pos = result.html.find("<p>x</p>");
  ASSERT_NE(script_pos, std::string::npos);
  ASSERT_NE(content_pos, std::string::npos);
  EXPECT_LT(script_pos, content_pos);
}

TEST(InjectorTest, HiddenLinkAppendedInsideBody) {
  const InjectionResult result = InstrumentHtml(kPage, FullPlan());
  const size_t hidden_pos = result.html.find("hl_tok.html");
  const size_t body_end = result.html.find("</body>");
  ASSERT_NE(hidden_pos, std::string::npos);
  ASSERT_NE(body_end, std::string::npos);
  EXPECT_LT(hidden_pos, body_end);
}

TEST(InjectorTest, HookLinksAddsOnclick) {
  InjectionPlan plan = FullPlan();
  plan.hook_links = true;
  const InjectionResult result = InstrumentHtml(kPage, plan);
  HtmlDocument doc(result.html);
  bool hooked = false;
  for (const LinkRef& link : doc.Links()) {
    if (link.href == "/x.html") {
      hooked = link.onclick == "return d();";
    }
  }
  EXPECT_TRUE(hooked);
}

TEST(InjectorTest, ExistingOnclickNotOverwritten) {
  InjectionPlan plan = FullPlan();
  plan.hook_links = true;
  const InjectionResult result = InstrumentHtml(
      "<html><body><a href=\"/x.html\" onclick=\"mine()\">x</a></body></html>", plan);
  HtmlDocument doc(result.html);
  for (const LinkRef& link : doc.Links()) {
    if (link.href == "/x.html") {
      EXPECT_EQ(link.onclick, "mine()");
    }
  }
}

TEST(InjectorTest, ExistingBodyHandlerReplaced) {
  InjectionPlan plan;
  plan.mouse_handler_code = "return d();";
  const InjectionResult result =
      InstrumentHtml("<body class=\"c\" OnMouseMove=\"old()\"><p>x</p></body>", plan);
  EXPECT_EQ(result.html,
            "<body class=\"c\" onmousemove=\"return d();\"><p>x</p></body>");
}

TEST(InjectorTest, TruncatedHtmlDoesNotCrash) {
  const InjectionResult result = InstrumentHtml("<html><body><a href=\"x", FullPlan());
  EXPECT_FALSE(result.html.empty());
}

}  // namespace
}  // namespace robodet
