#include "src/html/tokenizer.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

TEST(HtmlTokenizerTest, SimpleDocument) {
  const auto tokens = TokenizeHtml("<html><body>Hello</body></html>");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].type, HtmlTokenType::kStartTag);
  EXPECT_EQ(tokens[0].name, "html");
  EXPECT_EQ(tokens[2].type, HtmlTokenType::kText);
  EXPECT_EQ(tokens[2].text, "Hello");
  EXPECT_EQ(tokens[4].type, HtmlTokenType::kEndTag);
  EXPECT_EQ(tokens[4].name, "html");
}

TEST(HtmlTokenizerTest, AttributesQuotedAndUnquoted) {
  const auto tokens =
      TokenizeHtml(R"(<a href="x.html" class='big' id=main data-empty>link</a>)");
  ASSERT_GE(tokens.size(), 1u);
  const HtmlToken& a = tokens[0];
  EXPECT_EQ(a.Attr("href"), "x.html");
  EXPECT_EQ(a.Attr("class"), "big");
  EXPECT_EQ(a.Attr("id"), "main");
  EXPECT_TRUE(a.HasAttr("data-empty"));
  EXPECT_EQ(a.Attr("data-empty"), "");
  EXPECT_FALSE(a.HasAttr("missing"));
}

TEST(HtmlTokenizerTest, AttributeNamesAreLowercased) {
  const auto tokens = TokenizeHtml("<A HREF=\"x\">y</A>");
  EXPECT_EQ(tokens[0].name, "a");
  EXPECT_EQ(tokens[0].Attr("href"), "x");
  EXPECT_EQ(tokens[0].Attr("HREF"), "x");
}

TEST(HtmlTokenizerTest, SelfClosing) {
  const auto tokens = TokenizeHtml("<img src=\"a.jpg\" />");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].self_closing);
}

TEST(HtmlTokenizerTest, Comments) {
  const auto tokens = TokenizeHtml("a<!-- hidden -->b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].type, HtmlTokenType::kComment);
  EXPECT_EQ(tokens[1].text, " hidden ");
}

TEST(HtmlTokenizerTest, Doctype) {
  const auto tokens = TokenizeHtml("<!DOCTYPE html><html></html>");
  EXPECT_EQ(tokens[0].type, HtmlTokenType::kDoctype);
  EXPECT_EQ(tokens[0].text, "DOCTYPE html");
}

TEST(HtmlTokenizerTest, ScriptContentIsRawText) {
  const auto tokens = TokenizeHtml("<script>if (a < b) { x(); }</script>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].name, "script");
  EXPECT_EQ(tokens[1].type, HtmlTokenType::kText);
  EXPECT_EQ(tokens[1].text, "if (a < b) { x(); }");
  EXPECT_EQ(tokens[2].type, HtmlTokenType::kEndTag);
}

TEST(HtmlTokenizerTest, StyleContentIsRawText) {
  const auto tokens = TokenizeHtml("<style>a > b { color: red }</style>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "a > b { color: red }");
}

TEST(HtmlTokenizerTest, UnterminatedScriptDoesNotCrash) {
  const auto tokens = TokenizeHtml("<script>var x = 1;");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].text, "var x = 1;");
}

TEST(HtmlTokenizerTest, TruncatedTagDoesNotCrash) {
  const auto tokens = TokenizeHtml("<a href=\"x");
  ASSERT_GE(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].name, "a");
}

TEST(HtmlTokenizerTest, LiteralLessThanIsText) {
  const auto tokens = TokenizeHtml("a < b and a <3 you");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, HtmlTokenType::kText);
}

TEST(HtmlTokenizerTest, EmptyInput) {
  EXPECT_TRUE(TokenizeHtml("").empty());
}

TEST(HtmlTokenizerTest, SetAttrReplacesOrAppends) {
  HtmlToken tok;
  tok.type = HtmlTokenType::kStartTag;
  tok.name = "body";
  tok.SetAttr("onmousemove", "f()");
  EXPECT_EQ(tok.Attr("onmousemove"), "f()");
  tok.SetAttr("OnMouseMove", "g()");
  EXPECT_EQ(tok.Attr("onmousemove"), "g()");
  EXPECT_EQ(tok.attrs.size(), 1u);
}

TEST(HtmlTokenizerTest, SerializeEscapesQuotes) {
  HtmlToken tok;
  tok.type = HtmlTokenType::kStartTag;
  tok.name = "a";
  tok.attrs = {{"title", "say \"hi\""}};
  EXPECT_EQ(SerializeHtml({tok}), "<a title=\"say &quot;hi&quot;\">");
}

class TokenizerRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(TokenizerRoundTrip, ContentSurvives) {
  const std::string original = GetParam();
  const auto tokens = TokenizeHtml(original);
  const std::string serialized = SerializeHtml(tokens);
  // Round-trip must be a fixed point: tokenizing the serialization yields
  // the same token stream.
  const auto tokens2 = TokenizeHtml(serialized);
  ASSERT_EQ(tokens.size(), tokens2.size()) << serialized;
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].type, tokens2[i].type);
    EXPECT_EQ(tokens[i].name, tokens2[i].name);
    EXPECT_EQ(tokens[i].text, tokens2[i].text);
    EXPECT_EQ(tokens[i].attrs, tokens2[i].attrs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TokenizerRoundTrip,
    ::testing::Values(
        "<html><head><title>T</title></head><body><p>x</p></body></html>",
        "<body onmousemove=\"return f();\"><a href=\"x\">y</a></body>",
        "<div><img src=\"a.jpg\" width=\"1\" height=\"1\"></div>",
        "plain text only",
        "<!DOCTYPE html><!-- c --><p>t</p>",
        "<script>var s = '<p>not a tag</p>';</script>",
        "<ul><li>a<li>b</ul>"));

}  // namespace
}  // namespace robodet
