#include "src/sim/clf_import.h"

#include <gtest/gtest.h>

#include "src/ml/features.h"

namespace robodet {
namespace {

constexpr char kLine[] =
    "10.0.0.1 - - [06/Jan/2006:10:15:30 -0500] \"GET /p/1.html HTTP/1.0\" 200 2326 "
    "\"http://ref.example.com/\" \"Mozilla/4.0 (compatible; MSIE 6.0)\"";

TEST(ClfParseTest, FullCombinedLine) {
  const auto entry = ParseClfLine(kLine);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->ip.value(), (10u << 24) | 1u);  // 10.0.0.1
  EXPECT_EQ(entry->method, Method::kGet);
  EXPECT_EQ(entry->target, "/p/1.html");
  EXPECT_EQ(entry->status, 200);
  EXPECT_EQ(entry->bytes, 2326u);
  EXPECT_EQ(entry->referrer, "http://ref.example.com/");
  EXPECT_EQ(entry->user_agent, "Mozilla/4.0 (compatible; MSIE 6.0)");
}

TEST(ClfParseTest, CommonFormatWithoutTrailers) {
  const auto entry = ParseClfLine(
      "10.0.0.2 - frank [10/Oct/2000:13:55:36 -0700] \"GET /x.gif HTTP/1.0\" 200 -");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->bytes, 0u);
  EXPECT_TRUE(entry->referrer.empty());
  EXPECT_TRUE(entry->user_agent.empty());
}

TEST(ClfParseTest, DashFieldsNormalized) {
  const auto entry = ParseClfLine(
      "10.0.0.3 - - [06/Jan/2006:00:00:00 +0000] \"HEAD /p/2.html HTTP/1.1\" 304 0 "
      "\"-\" \"-\"");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->method, Method::kHead);
  EXPECT_TRUE(entry->referrer.empty());
  EXPECT_TRUE(entry->user_agent.empty());
}

TEST(ClfParseTest, MalformedLinesRejected) {
  EXPECT_FALSE(ParseClfLine("").has_value());
  EXPECT_FALSE(ParseClfLine("garbage").has_value());
  EXPECT_FALSE(ParseClfLine("not.an.ip - - [06/Jan/2006:10:15:30 -0500] \"GET / HTTP/1.0\" "
                            "200 1").has_value());
  EXPECT_FALSE(ParseClfLine("10.0.0.1 - - [bad stamp] \"GET / HTTP/1.0\" 200 1").has_value());
  EXPECT_FALSE(ParseClfLine("10.0.0.1 - - [06/Jan/2006:10:15:30 -0500] \"NOMETHOD / x\" 200 "
                            "1").has_value());
  EXPECT_FALSE(ParseClfLine("10.0.0.1 - - [06/Jan/2006:10:15:30 -0500] \"GET / HTTP/1.0\" "
                            "999 1").has_value());
  EXPECT_FALSE(ParseClfLine("10.0.0.1 - - [06/Jan/2006:10:15:30 -0500] \"GET / HTTP/1.0")
                   .has_value());  // Unterminated quote.
}

TEST(ClfTimestampTest, OrderingAndZones) {
  const auto a = ParseClfTimestamp("06/Jan/2006:10:15:30 -0500");
  const auto b = ParseClfTimestamp("06/Jan/2006:10:15:31 -0500");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b - *a, kSecond);
  // The same instant expressed in two zones is equal in UTC.
  const auto utc = ParseClfTimestamp("06/Jan/2006:15:15:30 +0000");
  ASSERT_TRUE(utc.has_value());
  EXPECT_EQ(*a, *utc);
  // Day arithmetic across a month boundary.
  const auto jan31 = ParseClfTimestamp("31/Jan/2006:23:59:59 +0000");
  const auto feb01 = ParseClfTimestamp("01/Feb/2006:00:00:00 +0000");
  EXPECT_EQ(*feb01 - *jan31, kSecond);
}

TEST(ClfTimestampTest, RejectsBadStamps) {
  EXPECT_FALSE(ParseClfTimestamp("").has_value());
  EXPECT_FALSE(ParseClfTimestamp("2006-01-06 10:15:30").has_value());
  EXPECT_FALSE(ParseClfTimestamp("06/Foo/2006:10:15:30 -0500").has_value());
  EXPECT_FALSE(ParseClfTimestamp("32/Jan/2006:10:15:30 -0500").has_value());
  EXPECT_FALSE(ParseClfTimestamp("06/Jan/2006:25:15:30 -0500").has_value());
  EXPECT_FALSE(ParseClfTimestamp("06/Jan/2006:10:15:30 -05").has_value());
}

TEST(ClfReplayTest, SessionsFormedAndSplit) {
  std::vector<std::string> lines;
  // Client A: two requests close together, then one after the idle gap.
  lines.push_back("10.0.0.1 - - [06/Jan/2006:10:00:00 +0000] \"GET /a.html HTTP/1.0\" 200 1 "
                  "\"-\" \"AgentA\"");
  lines.push_back("10.0.0.1 - - [06/Jan/2006:10:00:30 +0000] \"GET /b.html HTTP/1.0\" 200 1 "
                  "\"-\" \"AgentA\"");
  lines.push_back("10.0.0.1 - - [06/Jan/2006:12:00:00 +0000] \"GET /c.html HTTP/1.0\" 200 1 "
                  "\"-\" \"AgentA\"");
  // Client B: same IP, different UA -> distinct session.
  lines.push_back("10.0.0.1 - - [06/Jan/2006:10:00:10 +0000] \"GET /d.html HTTP/1.0\" 404 1 "
                  "\"-\" \"AgentB\"");
  const ClfReplayResult result = ReplayClfLog(lines);
  EXPECT_EQ(result.lines_total, 4u);
  EXPECT_EQ(result.lines_malformed, 0u);
  ASSERT_EQ(result.records.size(), 3u);  // A split in two + B.
  int with_two = 0;
  for (const SessionRecord& r : result.records) {
    EXPECT_EQ(r.client_type, "clf");
    with_two += r.request_count() == 2 ? 1 : 0;
  }
  EXPECT_EQ(with_two, 1);
}

TEST(ClfReplayTest, SignalsAndFeaturesFromLog) {
  std::vector<std::string> lines;
  lines.push_back("10.0.0.9 - - [06/Jan/2006:10:00:00 +0000] \"GET /robots.txt HTTP/1.0\" "
                  "200 1 \"-\" \"Crawler/1.0\"");
  lines.push_back("10.0.0.9 - - [06/Jan/2006:10:00:01 +0000] \"GET /a.html HTTP/1.0\" 200 1 "
                  "\"-\" \"Crawler/1.0\"");
  lines.push_back("10.0.0.9 - - [06/Jan/2006:10:00:02 +0000] \"GET /b.html HTTP/1.0\" 200 1 "
                  "\"http://log.import/a.html\" \"Crawler/1.0\"");
  lines.push_back("10.0.0.9 - - [06/Jan/2006:10:00:03 +0000] \"GET /c.html HTTP/1.0\" 404 1 "
                  "\"http://unrelated.example/\" \"Crawler/1.0\"");
  const ClfReplayResult result = ReplayClfLog(lines);
  ASSERT_EQ(result.records.size(), 1u);
  const SessionRecord& r = result.records[0];
  EXPECT_GT(r.signals().robots_txt_at, 0);
  ASSERT_EQ(r.events.size(), 4u);
  EXPECT_FALSE(r.events[2].unseen_referrer);  // Referred from a visited page.
  EXPECT_TRUE(r.events[3].unseen_referrer);
  EXPECT_EQ(r.events[3].status_class, 4);
  // Table-2 features come straight off the replayed events.
  const FeatureVector x = ExtractFeatures(r.events);
  EXPECT_DOUBLE_EQ(x[static_cast<size_t>(FeatureId::kReferrerPct)], 0.5);
}

TEST(ClfReplayTest, MalformedLinesCountedNotFatal) {
  std::vector<std::string> lines = {
      "garbage line",
      "10.0.0.1 - - [06/Jan/2006:10:00:00 +0000] \"GET /a.html HTTP/1.0\" 200 1 \"-\" "
      "\"A\"",
      "",
  };
  const ClfReplayResult result = ReplayClfLog(lines);
  EXPECT_EQ(result.lines_total, 2u);  // Empty line skipped entirely.
  EXPECT_EQ(result.lines_malformed, 1u);
  EXPECT_EQ(result.records.size(), 1u);
}

TEST(ClfReplayTest, AbsoluteProxyTargets) {
  std::vector<std::string> lines = {
      "10.0.0.5 - - [06/Jan/2006:10:00:00 +0000] \"GET http://www.example.com/p/1.html "
      "HTTP/1.0\" 200 1 \"-\" \"A\"",
  };
  const ClfReplayResult result = ReplayClfLog(lines);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].events[0].kind, ResourceKind::kHtml);
}

TEST(ClfReplayTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(ReplayClfFile("/no/such/file.log").has_value());
}

}  // namespace
}  // namespace robodet
