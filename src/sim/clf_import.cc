#include "src/sim/clf_import.h"

#include <array>
#include <fstream>

#include "src/proxy/session_table.h"
#include "src/util/strings.h"

namespace robodet {
namespace {

// Origin host assumed for relative targets.
constexpr char kDefaultHost[] = "log.import";

// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
int64_t DaysFromCivil(int64_t y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

std::optional<unsigned> MonthFromName(std::string_view name) {
  static constexpr std::array<std::string_view, 12> kMonths = {
      "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  for (unsigned i = 0; i < kMonths.size(); ++i) {
    if (name == kMonths[i]) {
      return i + 1;
    }
  }
  return std::nullopt;
}

// Extracts the next field: either a bare token, or "..." / [...] grouped.
// Advances `pos` past the field and any following space. Returns nullopt
// when the line is exhausted or a group is unterminated.
std::optional<std::string> NextField(std::string_view line, size_t& pos) {
  while (pos < line.size() && line[pos] == ' ') {
    ++pos;
  }
  if (pos >= line.size()) {
    return std::nullopt;
  }
  char close = 0;
  if (line[pos] == '"') {
    close = '"';
  } else if (line[pos] == '[') {
    close = ']';
  }
  if (close != 0) {
    const size_t start = pos + 1;
    const size_t end = line.find(close, start);
    if (end == std::string_view::npos) {
      return std::nullopt;
    }
    pos = end + 1;
    return std::string(line.substr(start, end - start));
  }
  const size_t start = pos;
  const size_t end = line.find(' ', start);
  pos = end == std::string_view::npos ? line.size() : end;
  return std::string(line.substr(start, pos - start));
}

}  // namespace

std::optional<TimeMs> ParseClfTimestamp(std::string_view stamp) {
  // "06/Jan/2006:10:15:30 -0500"
  const std::vector<std::string> space = Split(stamp, ' ');
  if (space.empty() || space.size() > 2) {
    return std::nullopt;
  }
  const std::vector<std::string> date_time = Split(space[0], ':');
  if (date_time.size() != 4) {
    return std::nullopt;
  }
  const std::vector<std::string> dmy = Split(date_time[0], '/');
  if (dmy.size() != 3) {
    return std::nullopt;
  }
  const auto day = ParseU64(dmy[0]);
  const auto month = MonthFromName(dmy[1]);
  const auto year = ParseU64(dmy[2]);
  const auto hour = ParseU64(date_time[1]);
  const auto minute = ParseU64(date_time[2]);
  const auto second = ParseU64(date_time[3]);
  if (!day.has_value() || !month.has_value() || !year.has_value() || !hour.has_value() ||
      !minute.has_value() || !second.has_value() || *day < 1 || *day > 31 || *hour > 23 ||
      *minute > 59 || *second > 60) {
    return std::nullopt;
  }
  TimeMs t = DaysFromCivil(static_cast<int64_t>(*year), *month,
                           static_cast<unsigned>(*day)) *
             kDay;
  t += static_cast<TimeMs>(*hour) * kHour + static_cast<TimeMs>(*minute) * kMinute +
       static_cast<TimeMs>(*second) * kSecond;
  // Zone offset "+HHMM"/"-HHMM": convert local stamp to UTC.
  if (space.size() == 2) {
    const std::string& zone = space[1];
    if (zone.size() != 5 || (zone[0] != '+' && zone[0] != '-')) {
      return std::nullopt;
    }
    const auto zh = ParseU64(std::string_view(zone).substr(1, 2));
    const auto zm = ParseU64(std::string_view(zone).substr(3, 2));
    if (!zh.has_value() || !zm.has_value()) {
      return std::nullopt;
    }
    const TimeMs offset = static_cast<TimeMs>(*zh) * kHour + static_cast<TimeMs>(*zm) * kMinute;
    t += zone[0] == '+' ? -offset : offset;
  }
  return t;
}

std::optional<ClfEntry> ParseClfLine(std::string_view line) {
  size_t pos = 0;
  const auto host = NextField(line, pos);
  const auto ident = NextField(line, pos);
  const auto user = NextField(line, pos);
  const auto stamp = NextField(line, pos);
  const auto request = NextField(line, pos);
  const auto status = NextField(line, pos);
  const auto bytes = NextField(line, pos);
  if (!host.has_value() || !ident.has_value() || !user.has_value() || !stamp.has_value() ||
      !request.has_value() || !status.has_value() || !bytes.has_value()) {
    return std::nullopt;
  }
  ClfEntry entry;
  const auto ip = IpAddress::Parse(*host);
  if (!ip.has_value()) {
    return std::nullopt;  // Hostname logging unsupported; needs numeric IPs.
  }
  entry.ip = *ip;
  const auto time = ParseClfTimestamp(*stamp);
  if (!time.has_value()) {
    return std::nullopt;
  }
  entry.time = *time;

  // "GET /path HTTP/1.0"
  const std::vector<std::string> req_parts = Split(*request, ' ');
  if (req_parts.size() < 2) {
    return std::nullopt;
  }
  const auto method = ParseMethod(req_parts[0]);
  if (!method.has_value()) {
    return std::nullopt;
  }
  entry.method = *method;
  entry.target = req_parts[1];

  const auto status_code = ParseU64(*status);
  if (!status_code.has_value() || *status_code < 100 || *status_code > 599) {
    return std::nullopt;
  }
  entry.status = static_cast<int>(*status_code);
  entry.bytes = ParseU64(*bytes).value_or(0);  // "-" means zero.

  if (auto referrer = NextField(line, pos); referrer.has_value() && *referrer != "-") {
    entry.referrer = std::move(*referrer);
  }
  if (auto agent = NextField(line, pos); agent.has_value() && *agent != "-") {
    entry.user_agent = std::move(*agent);
  }
  return entry;
}

ClfReplayResult ReplayClfLog(const std::vector<std::string>& lines) {
  ClfReplayResult result;
  SessionTable table(SessionTable::Config{});
  table.set_on_closed([&result](std::unique_ptr<SessionState> session) {
    SessionRecord record;
    record.session_id = session->id();
    record.client_type = "clf";
    record.observation = session->observation();
    record.events.assign(session->events().begin(), session->events().end());
    record.first_request = session->first_request_time();
    record.last_request = session->last_request_time();
    result.records.push_back(std::move(record));
  });

  for (const std::string& line : lines) {
    ++result.lines_total;
    if (line.empty()) {
      --result.lines_total;
      continue;
    }
    const auto entry = ParseClfLine(line);
    if (!entry.has_value()) {
      ++result.lines_malformed;
      continue;
    }
    SessionState* session =
        table.Touch({entry->ip, entry->user_agent}, entry->time);

    // The target may be absolute (proxy logs) or a bare path.
    Url url;
    if (const auto parsed = Url::Parse(entry->target); parsed.has_value()) {
      url = *parsed;
    } else if (!entry->target.empty() && entry->target[0] == '/') {
      url = Url::Make(kDefaultHost, entry->target);
    } else {
      ++result.lines_malformed;
      continue;
    }

    RequestEvent ev;
    ev.kind = ClassifyUrl(url);
    ev.is_head = entry->method == Method::kHead;
    ev.is_favicon = ev.kind == ResourceKind::kFavicon;
    ev.has_referrer = !entry->referrer.empty();
    if (ev.has_referrer) {
      ev.unseen_referrer = !session->visited_urls().Contains(entry->referrer);
    }
    ev.status_class = static_cast<uint8_t>(entry->status / 100);
    const int index = session->RecordRequest(entry->time, ev);
    session->visited_urls().Insert(url.ToString());
    if (ev.kind == ResourceKind::kRobotsTxt) {
      SessionState::MarkSignal(session->signals().robots_txt_at, index);
    }
  }
  table.CloseAll();
  return result;
}

std::optional<ClfReplayResult> ReplayClfFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return ReplayClfLog(lines);
}

}  // namespace robodet
