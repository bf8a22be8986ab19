#include "src/js/lexer.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

TEST(JsLexerTest, BasicTokens) {
  const auto result = LexJs("var x = 42;");
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.tokens.size(), 6u);  // var x = 42 ; EOF
  EXPECT_EQ(result.tokens[0].type, JsTokenType::kKeyword);
  EXPECT_EQ(result.tokens[0].text, "var");
  EXPECT_EQ(result.tokens[1].type, JsTokenType::kIdentifier);
  EXPECT_EQ(result.tokens[3].type, JsTokenType::kNumber);
  EXPECT_EQ(result.tokens[3].text, "42");
  EXPECT_EQ(result.tokens.back().type, JsTokenType::kEof);
}

TEST(JsLexerTest, StringsBothQuotes) {
  const auto result = LexJs("'single' \"double\"");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.tokens[0].text, "single");
  EXPECT_EQ(result.tokens[0].quote, '\'');
  EXPECT_EQ(result.tokens[1].text, "double");
  EXPECT_EQ(result.tokens[1].quote, '"');
}

TEST(JsLexerTest, StringEscapes) {
  const auto result = LexJs(R"('a\'b\\c\nd')");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.tokens[0].text, "a'b\\c\nd");
}

TEST(JsLexerTest, Comments) {
  const auto result = LexJs("a // line comment\n b /* block */ c");
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.tokens.size(), 4u);
  EXPECT_EQ(result.tokens[0].text, "a");
  EXPECT_EQ(result.tokens[1].text, "b");
  EXPECT_EQ(result.tokens[2].text, "c");
}

// A '.' token next to a number keeps a space on re-emission, or the number
// would swallow it as a decimal point.
TEST(JsLexerTest, EmitKeepsDotsApartFromNumbers) {
  const auto result = LexJs("a = 0 .. b . 5");
  ASSERT_TRUE(result.ok);
  const std::string emitted = EmitJs(result.tokens);
  const auto relexed = LexJs(emitted);
  ASSERT_TRUE(relexed.ok) << emitted;
  ASSERT_EQ(relexed.tokens.size(), result.tokens.size()) << emitted;
  for (size_t i = 0; i < result.tokens.size(); ++i) {
    EXPECT_EQ(relexed.tokens[i].text, result.tokens[i].text) << emitted;
  }
}

TEST(JsLexerTest, MultiCharPunctuators) {
  const auto result = LexJs("a === b !== c == d != e <= f >= g && h || i += j");
  ASSERT_TRUE(result.ok);
  std::vector<std::string> puncts;
  for (const JsToken& t : result.tokens) {
    if (t.type == JsTokenType::kPunct) {
      puncts.emplace_back(t.text);
    }
  }
  EXPECT_EQ(puncts, (std::vector<std::string>{"===", "!==", "==", "!=", "<=", ">=", "&&", "||",
                                              "+="}));
}

TEST(JsLexerTest, Numbers) {
  const auto result = LexJs("1 2.5 0.125");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.tokens[0].text, "1");
  EXPECT_EQ(result.tokens[1].text, "2.5");
  EXPECT_EQ(result.tokens[2].text, "0.125");
}

TEST(JsLexerTest, UnterminatedStringFails) {
  const auto result = LexJs("var s = 'oops");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unterminated string"), std::string::npos);
}

TEST(JsLexerTest, UnterminatedBlockCommentFails) {
  const auto result = LexJs("a /* never closed");
  EXPECT_FALSE(result.ok);
}

TEST(JsLexerTest, UnexpectedCharFails) {
  const auto result = LexJs("var x = `template`;");
  EXPECT_FALSE(result.ok);
}

TEST(JsLexerTest, KeywordsRecognized) {
  for (const char* kw :
       {"var", "function", "if", "else", "return", "new", "true", "false", "while"}) {
    EXPECT_TRUE(IsJsKeyword(kw)) << kw;
  }
  EXPECT_FALSE(IsJsKeyword("varx"));
  EXPECT_FALSE(IsJsKeyword("Image"));
}

class EmitRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(EmitRoundTrip, LexEmitLexIsStable) {
  const auto first = LexJs(GetParam());
  ASSERT_TRUE(first.ok) << GetParam();
  const std::string emitted = EmitJs(first.tokens);
  const auto second = LexJs(emitted);
  ASSERT_TRUE(second.ok) << emitted;
  ASSERT_EQ(first.tokens.size(), second.tokens.size()) << emitted;
  for (size_t i = 0; i < first.tokens.size(); ++i) {
    EXPECT_EQ(first.tokens[i].type, second.tokens[i].type) << emitted;
    EXPECT_EQ(first.tokens[i].text, second.tokens[i].text) << emitted;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EmitRoundTrip,
    ::testing::Values(
        "var do_once = false;",
        "function f() { if (do_once == false) { var i = new Image(); i.src = 'http://x/y.jpg'; "
        "return true; } return false; }",
        "a = b - -c;",
        "x = 1 + +2;",
        "s = 'quote\\'s' + \"d\\\"q\";",
        "if (a && b || !c) { d(); } else { e(); }",
        "n = 1.5 * 2 % 3 / 4;",
        "obj.prop.sub = fn(1, 'two', three);"));

}  // namespace
}  // namespace robodet
