#include "src/html/tokenizer.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/util/strings.h"

namespace robodet {
namespace {

std::vector<HtmlTokenView> Tokenize(std::string_view html) {
  std::vector<HtmlTokenView> tokens;
  HtmlTokenStream stream(html);
  HtmlTokenView v;
  while (stream.Next(v)) {
    tokens.push_back(v);
  }
  return tokens;
}

// The first value of attribute `name` (matched case-insensitively), or
// nullopt when the tag has none.
std::optional<std::string_view> Attr(const HtmlTokenView& tok, std::string_view name) {
  HtmlAttrCursor cursor(tok.attr_src);
  HtmlAttrView a;
  while (cursor.Next(a)) {
    if (EqualsIgnoreCase(a.name, name)) {
      return a.value;
    }
  }
  return std::nullopt;
}

std::string Serialize(std::string_view html) {
  std::string out;
  for (const HtmlTokenView& v : Tokenize(html)) {
    AppendTokenView(out, v);
  }
  return out;
}

TEST(HtmlTokenizerTest, SimpleDocument) {
  const auto tokens = Tokenize("<html><body>Hello</body></html>");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].type, HtmlTokenType::kStartTag);
  EXPECT_EQ(tokens[0].name, "html");
  EXPECT_EQ(tokens[2].type, HtmlTokenType::kText);
  EXPECT_EQ(tokens[2].text, "Hello");
  EXPECT_EQ(tokens[4].type, HtmlTokenType::kEndTag);
  EXPECT_EQ(tokens[4].name, "html");
}

TEST(HtmlTokenizerTest, AttributesQuotedAndUnquoted) {
  const auto tokens = Tokenize(R"(<a href="x.html" class='big' id=main data-empty>link</a>)");
  ASSERT_GE(tokens.size(), 1u);
  const HtmlTokenView& a = tokens[0];
  EXPECT_EQ(Attr(a, "href"), "x.html");
  EXPECT_EQ(Attr(a, "class"), "big");
  EXPECT_EQ(Attr(a, "id"), "main");
  EXPECT_EQ(Attr(a, "data-empty"), "");
  EXPECT_FALSE(Attr(a, "missing").has_value());
}

TEST(HtmlTokenizerTest, NamesAreLowercasedOnSerialization) {
  const auto tokens = Tokenize("<A HREF=\"x\">y</A>");
  EXPECT_EQ(tokens[0].name, "A");  // Views keep the source casing.
  EXPECT_EQ(Attr(tokens[0], "href"), "x");
  EXPECT_EQ(Attr(tokens[0], "HREF"), "x");
  EXPECT_EQ(Serialize("<A HREF=\"x\">y</A>"), "<a href=\"x\">y</a>");
}

TEST(HtmlTokenizerTest, SelfClosing) {
  const auto tokens = Tokenize("<img src=\"a.jpg\" />");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].self_closing);
}

TEST(HtmlTokenizerTest, Comments) {
  const auto tokens = Tokenize("a<!-- hidden -->b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].type, HtmlTokenType::kComment);
  EXPECT_EQ(tokens[1].text, " hidden ");
}

TEST(HtmlTokenizerTest, Doctype) {
  const auto tokens = Tokenize("<!DOCTYPE html><html></html>");
  EXPECT_EQ(tokens[0].type, HtmlTokenType::kDoctype);
  EXPECT_EQ(tokens[0].text, "DOCTYPE html");
}

TEST(HtmlTokenizerTest, ScriptContentIsRawText) {
  const auto tokens = Tokenize("<script>if (a < b) { x(); }</script>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].name, "script");
  EXPECT_EQ(tokens[1].type, HtmlTokenType::kText);
  EXPECT_EQ(tokens[1].text, "if (a < b) { x(); }");
  EXPECT_EQ(tokens[2].type, HtmlTokenType::kEndTag);
}

TEST(HtmlTokenizerTest, StyleContentIsRawText) {
  const auto tokens = Tokenize("<style>a > b { color: red }</style>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "a > b { color: red }");
}

TEST(HtmlTokenizerTest, UnterminatedScriptDoesNotCrash) {
  const auto tokens = Tokenize("<script>var x = 1;");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].text, "var x = 1;");
}

TEST(HtmlTokenizerTest, TruncatedTagDoesNotCrash) {
  const auto tokens = Tokenize("<a href=\"x");
  ASSERT_GE(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].name, "a");
}

TEST(HtmlTokenizerTest, LiteralLessThanIsText) {
  const auto tokens = Tokenize("a < b and a <3 you");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, HtmlTokenType::kText);
}

TEST(HtmlTokenizerTest, EmptyInput) {
  EXPECT_TRUE(Tokenize("").empty());
}

TEST(HtmlTokenizerTest, SerializeEscapesQuotes) {
  EXPECT_EQ(Serialize("<a title='say \"hi\"'>"), "<a title=\"say &quot;hi&quot;\">");
}

class TokenizerRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(TokenizerRoundTrip, ContentSurvives) {
  const std::string original = GetParam();
  const auto tokens = Tokenize(original);
  const std::string serialized = Serialize(original);
  // Round-trip must be a fixed point: tokenizing the serialization yields
  // the same token stream.
  const auto tokens2 = Tokenize(serialized);
  ASSERT_EQ(tokens.size(), tokens2.size()) << serialized;
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].type, tokens2[i].type);
    EXPECT_TRUE(EqualsIgnoreCase(tokens[i].name, tokens2[i].name));
    EXPECT_EQ(tokens[i].text, tokens2[i].text);
    HtmlAttrCursor c1(tokens[i].attr_src);
    HtmlAttrCursor c2(tokens2[i].attr_src);
    HtmlAttrView a1;
    HtmlAttrView a2;
    while (c1.Next(a1)) {
      ASSERT_TRUE(c2.Next(a2)) << serialized;
      EXPECT_TRUE(EqualsIgnoreCase(a1.name, a2.name));
      EXPECT_EQ(a1.value, a2.value);
    }
    EXPECT_FALSE(c2.Next(a2)) << serialized;
  }
  EXPECT_EQ(Serialize(serialized), serialized);
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
