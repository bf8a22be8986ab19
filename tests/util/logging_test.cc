#include "src/util/logging.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace robodet {
namespace {

// The default writer: one "[LEVEL] message key=value ..." line per record
// on stderr. Each test restores the default kWarning threshold.
class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override { SetLogLevel(LogLevel::kWarning); }
};

TEST_F(LoggingTest, LevelFilterDropsBelowThreshold) {
  SetLogLevel(LogLevel::kWarning);
  testing::internal::CaptureStderr();
  ROBODET_LOG(kDebug) << "debug";
  ROBODET_LOG(kInfo) << "info";
  ROBODET_LOG(kWarning) << "warn";
  ROBODET_LOG(kError) << "error";
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[WARN] warn\n[ERROR] error\n");
}

TEST_F(LoggingTest, NoneSilencesEverything) {
  SetLogLevel(LogLevel::kNone);
  testing::internal::CaptureStderr();
  ROBODET_LOG(kError) << "error";
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST_F(LoggingTest, MacroStreamsAndConcatenates) {
  SetLogLevel(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  ROBODET_LOG(kInfo) << "count=" << 42 << " name=" << "x";
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[INFO] count=42 name=x\n");
}

TEST_F(LoggingTest, WithFieldsFlattenOnStderr) {
  SetLogLevel(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  ROBODET_LOG(kInfo).With("session", 7).With("rate", 0.5) << "classified";
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[INFO] classified session=7 rate=0.5\n");
}

class StructuredLoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kDebug);
    SetStructuredLogSink([this](const LogRecord& record) { captured_.push_back(record); });
  }
  void TearDown() override {
    SetStructuredLogSink(nullptr);
    SetLogLevel(LogLevel::kWarning);
  }

  std::vector<LogRecord> captured_;
};

TEST_F(StructuredLoggingTest, ReceivesMessageAndTypedFields) {
  ROBODET_LOG(kWarning).With("requests", 42).With("rate", 1.5) << "policy tripped";
  ASSERT_EQ(captured_.size(), 1u);
  const LogRecord& r = captured_[0];
  EXPECT_EQ(r.level, LogLevel::kWarning);
  EXPECT_EQ(r.message, "policy tripped");
  ASSERT_EQ(r.fields.size(), 2u);
  EXPECT_EQ(r.fields[0].key, "requests");
  EXPECT_EQ(r.fields[0].value, "42");
  EXPECT_FALSE(r.fields[0].quoted);
  EXPECT_EQ(r.fields[1].value, "1.5");
  EXPECT_FALSE(r.fields[1].quoted);
}

TEST_F(StructuredLoggingTest, ReplacesTheStderrWriter) {
  testing::internal::CaptureStderr();
  ROBODET_LOG(kError) << "hello";
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].message, "hello");
}

TEST_F(StructuredLoggingTest, RespectsLevelFilter) {
  SetLogLevel(LogLevel::kError);
  ROBODET_LOG(kInfo) << "dropped";
  EXPECT_TRUE(captured_.empty());
}

TEST(JsonLinesSinkTest, WritesOneJsonObjectPerRecord) {
  char* buffer = nullptr;
  size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  const StructuredLogSink sink = JsonLinesSink(stream);

  LogRecord record;
  record.level = LogLevel::kInfo;
  record.message = "got \"quote\"\nand newline";
  record.fields.push_back({"kind", "css", /*quoted=*/true});
  record.fields.push_back({"count", "3", /*quoted=*/false});
  sink(record);
  std::fflush(stream);

  const std::string got(buffer, size);
  EXPECT_EQ(got,
            "{\"level\":\"INFO\",\"msg\":\"got \\\"quote\\\"\\nand newline\","
            "\"kind\":\"css\",\"count\":3}\n");
  std::fclose(stream);
  free(buffer);
}

}  // namespace
}  // namespace robodet
