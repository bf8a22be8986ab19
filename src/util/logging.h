// Minimal leveled logging to stderr. Benchmarks and examples set the level;
// the library defaults to warnings only so tests stay quiet.
//
// By default each record is written to stderr as one line, its fields
// flattened to "[LEVEL] msg key=value ...". SetStructuredLogSink redirects
// full LogRecords (message + typed key/value fields) instead;
// JsonLinesSink() is a ready-made structured sink that writes one JSON
// object per line.
#ifndef ROBODET_SRC_UTIL_LOGGING_H_
#define ROBODET_SRC_UTIL_LOGGING_H_

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace robodet {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kNone = 4,
};

// Global threshold; messages below it are dropped.
void SetLogLevel(LogLevel level);

// One key/value attachment on a record. `quoted` is false for values that
// are valid bare JSON tokens (numbers, true/false) and true for strings.
struct LogField {
  std::string key;
  std::string value;
  bool quoted = true;
};

struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string message;
  std::vector<LogField> fields;
};

// Redirects log output. The sink receives records that pass the level
// filter; null restores the default stderr writer.
using StructuredLogSink = std::function<void(const LogRecord&)>;
void SetStructuredLogSink(StructuredLogSink sink);

// Builds a structured sink that writes JSON Lines to `out` (one object
// per record: {"level":"INFO","msg":"...",<fields...>}). Field keys land
// at the top level, so avoid naming a field "level" or "msg".
StructuredLogSink JsonLinesSink(std::FILE* out);

// Emits a full record: structured sink if set, otherwise flattened to
// stderr.
void LogRecordMessage(LogRecord record);

namespace internal {

class LogLine {
 public:
  explicit LogLine(LogLevel level) { record_.level = level; }
  ~LogLine() {
    record_.message = stream_.str();
    LogRecordMessage(std::move(record_));
  }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

  // Structured numeric attachments, e.g.:
  //   ROBODET_LOG(kInfo).With("sessions", n).With("accuracy", acc)
  //       << "analyzed";
  template <typename T, std::enable_if_t<std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                                         int> = 0>
  LogLine& With(std::string key, T value) {
    std::ostringstream os;
    os << value;
    record_.fields.push_back({std::move(key), os.str(), /*quoted=*/false});
    return *this;
  }

 private:
  LogRecord record_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace robodet

#define ROBODET_LOG(level) ::robodet::internal::LogLine(::robodet::LogLevel::level)

#endif  // ROBODET_SRC_UTIL_LOGGING_H_
