#include "src/http/headers.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

TEST(HeadersTest, SetAndGetCaseInsensitive) {
  Headers h;
  h.Set("Content-Type", "text/html");
  EXPECT_EQ(h.Get("content-type"), "text/html");
  EXPECT_EQ(h.Get("CONTENT-TYPE"), "text/html");
  EXPECT_FALSE(h.Get("Content-Length").has_value());
}

TEST(HeadersTest, SetReplacesAllValues) {
  Headers h;
  h.Add("X-Multi", "1");
  h.Add("X-Multi", "2");
  h.Set("x-multi", "3");
  EXPECT_EQ(h.entries().size(), 1u);
  EXPECT_EQ(h.Get("X-Multi"), "3");
}

TEST(HeadersTest, AddPreservesOrder) {
  Headers h;
  h.Add("Set-Cookie", "a=1");
  h.Add("Set-Cookie", "b=2");
  const auto& all = h.entries();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].second, "a=1");
  EXPECT_EQ(all[1].second, "b=2");
}

TEST(HeadersTest, Remove) {
  Headers h;
  h.Add("A", "1");
  h.Add("a", "2");
  h.Add("B", "3");
  EXPECT_EQ(h.Remove("A"), 2u);
  EXPECT_FALSE(h.Has("a"));
  EXPECT_TRUE(h.Has("B"));
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.Remove("missing"), 0u);
}

TEST(HeadersTest, WireSize) {
  Headers h;
  h.Set("A", "xy");  // "A: xy\r\n" = 7 bytes.
  EXPECT_EQ(h.WireSize(), 7u);
  h.Add("BB", "z");  // "BB: z\r\n" = 7 bytes.
  EXPECT_EQ(h.WireSize(), 14u);
}

TEST(HeadersTest, EmptyValue) {
  Headers h;
  h.Set("X-Empty", "");
  EXPECT_TRUE(h.Has("X-Empty"));
  EXPECT_EQ(h.Get("X-Empty"), "");
}

}  // namespace
}  // namespace robodet
