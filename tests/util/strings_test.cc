#include "src/util/strings.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

TEST(StringsTest, AsciiLower) {
  EXPECT_EQ(AsciiLower("Hello World"), "hello world");
  EXPECT_EQ(AsciiLower("ABC123xyz"), "abc123xyz");
  EXPECT_EQ(AsciiLower(""), "");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Content-Type", "content-type"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  hi  "), "hi");
  EXPECT_EQ(TrimWhitespace("\t\nx\r "), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("no-trim"), "no-trim");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, ParseU64Valid) {
  EXPECT_EQ(ParseU64("0"), 0u);
  EXPECT_EQ(ParseU64("42"), 42u);
  EXPECT_EQ(ParseU64("18446744073709551615"), UINT64_MAX);
}

TEST(StringsTest, ParseU64Invalid) {
  EXPECT_FALSE(ParseU64("").has_value());
  EXPECT_FALSE(ParseU64("-1").has_value());
  EXPECT_FALSE(ParseU64("12a").has_value());
  EXPECT_FALSE(ParseU64(" 1").has_value());
  EXPECT_FALSE(ParseU64("18446744073709551616").has_value());  // Overflow.
}

class ParseU64RoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParseU64RoundTrip, RoundTrips) {
  const uint64_t v = GetParam();
  EXPECT_EQ(ParseU64(std::to_string(v)), v);
}

INSTANTIATE_TEST_SUITE_P(Values, ParseU64RoundTrip,
                         ::testing::Values(0u, 1u, 9u, 10u, 999u, 1000000007u,
                                           uint64_t{1} << 32, UINT64_MAX - 1, UINT64_MAX));

TEST(StringsTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("Mozilla/5.0 Firefox", "firefox"));
  EXPECT_TRUE(ContainsIgnoreCase("abc", ""));
  EXPECT_FALSE(ContainsIgnoreCase("short", "longer-needle"));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "d"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a b c", " ", ""), "abc");
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("none", "x", "y"), "none");
  EXPECT_EQ(ReplaceAll("abc", "", "z"), "abc");  // Empty needle: unchanged.
  EXPECT_EQ(ReplaceAll("ababab", "ab", "ba"), "bababa");
}

}  // namespace
}  // namespace robodet
