#include "src/util/logging.h"

#include <cstdio>

#include "src/util/strings.h"

namespace robodet {
namespace {

LogLevel g_level = LogLevel::kWarning;
StructuredLogSink g_structured_sink;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kNone:
      return "NONE";
  }
  return "?";
}

// "message key=value key2=value2" for the stderr writer. Matches the
// message byte-for-byte when the record carries no fields.
std::string Flatten(const LogRecord& record) {
  std::string out = record.message;
  for (const LogField& field : record.fields) {
    if (!out.empty()) {
      out += ' ';
    }
    out += field.key;
    out += '=';
    out += field.value;
  }
  return out;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }

void SetStructuredLogSink(StructuredLogSink sink) { g_structured_sink = std::move(sink); }

StructuredLogSink JsonLinesSink(std::FILE* out) {
  return [out](const LogRecord& record) {
    std::string line = "{\"level\":\"";
    line += LevelName(record.level);
    line += "\",\"msg\":\"";
    line += JsonEscape(record.message);
    line += '"';
    for (const LogField& field : record.fields) {
      line += ",\"";
      line += JsonEscape(field.key);
      line += "\":";
      if (field.quoted) {
        line += '"';
        line += JsonEscape(field.value);
        line += '"';
      } else {
        line += field.value;
      }
    }
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), out);
  };
}

void LogRecordMessage(LogRecord record) {
  if (static_cast<int>(record.level) < static_cast<int>(g_level)) {
    return;
  }
  if (g_structured_sink) {
    g_structured_sink(record);
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", LevelName(record.level), Flatten(record).c_str());
}

}  // namespace robodet
