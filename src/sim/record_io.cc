#include "src/sim/record_io.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "src/util/strings.h"

namespace robodet {
namespace {

// Hard limits for the load path: CSV files come from outside the process
// (operators move captures between machines), so the reader treats them as
// untrusted and bounds every dimension an attacker could inflate.
constexpr size_t kMaxCsvLineBytes = 64 * 1024;
constexpr size_t kMaxCsvSessions = 4u << 20;
constexpr size_t kMaxCsvEventsPerSession = 1u << 16;

// Sessions CSV: five record columns, one per kSignalIndices entry, then the
// echoed agent and the two timestamps.
constexpr size_t kSignalColumn = 5;
constexpr size_t kAgentColumn = kSignalColumn + std::size(kSignalIndices);

std::string SessionsHeader() {
  std::string header = "session_id,client_type,truly_human,request_count,instrumented_pages,";
  for (const SignalIndex& index : kSignalIndices) {
    header.append(index.name).push_back(',');
  }
  return header + "ua_echo_agent,first_request_ms,last_request_ms";
}

constexpr char kEventsHeader[] =
    "session_id,seq,kind,status_class,is_head,has_referrer,unseen_referrer,"
    "is_embedded,is_link_follow,is_favicon";

// The only free-text field is ua_echo_agent; it is sanitized (no spaces or
// commas survive the echo path), but escape commas defensively anyway.
std::string CsvField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c != ',' && c != '\n' && c != '\r') {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

bool WriteSessionsCsv(const std::string& path, const std::vector<SessionRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << SessionsHeader() << '\n';
  for (const SessionRecord& r : records) {
    const SessionSignals& s = r.signals();
    out << r.session_id << ',' << CsvField(r.client_type) << ',' << (r.truly_human ? 1 : 0)
        << ',' << r.request_count() << ',' << r.observation.instrumented_pages << ',';
    for (const SignalIndex& index : kSignalIndices) {
      out << s.*index.field << ',';
    }
    out << CsvField(s.ua_echo_agent) << ',' << r.first_request << ',' << r.last_request << '\n';
  }
  return static_cast<bool>(out);
}

bool WriteEventsCsv(const std::string& path, const std::vector<SessionRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << kEventsHeader << '\n';
  for (const SessionRecord& r : records) {
    for (size_t i = 0; i < r.events.size(); ++i) {
      const RequestEvent& e = r.events[i];
      out << r.session_id << ',' << i << ',' << static_cast<int>(e.kind) << ','
          << static_cast<int>(e.status_class) << ',' << (e.is_head ? 1 : 0) << ','
          << (e.has_referrer ? 1 : 0) << ',' << (e.unseen_referrer ? 1 : 0) << ','
          << (e.is_embedded ? 1 : 0) << ',' << (e.is_link_follow ? 1 : 0) << ','
          << (e.is_favicon ? 1 : 0) << '\n';
    }
  }
  return static_cast<bool>(out);
}

bool ReadRecordsCsv(const std::string& sessions_path, const std::string& events_path,
                    std::vector<SessionRecord>* out) {
  out->clear();
  std::ifstream sessions(sessions_path);
  if (!sessions) {
    return false;
  }
  std::string line;
  if (!std::getline(sessions, line) || line != SessionsHeader()) {
    return false;
  }
  std::map<uint64_t, size_t> index_by_id;
  while (std::getline(sessions, line)) {
    if (line.empty()) {
      continue;
    }
    if (line.size() > kMaxCsvLineBytes || out->size() >= kMaxCsvSessions) {
      return false;
    }
    const std::vector<std::string> f = Split(line, ',');
    if (f.size() != kAgentColumn + 3) {
      return false;
    }
    SessionRecord r;
    const auto id = ParseU64(f[0]);
    if (!id.has_value()) {
      return false;
    }
    r.session_id = *id;
    r.client_type = f[1];
    r.truly_human = f[2] == "1";
    // Numeric columns are non-negative ints; reject values that would wrap
    // on the narrowing cast.
    auto as_int = [&f](size_t i, int* v) {
      const auto parsed = ParseU64(f[i]);
      if (!parsed.has_value() ||
          *parsed > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
        return false;
      }
      *v = static_cast<int>(*parsed);
      return true;
    };
    SessionSignals& s = r.observation.signals;
    bool ok = as_int(3, &r.observation.request_count) &&
              as_int(4, &r.observation.instrumented_pages);
    for (size_t i = 0; i < std::size(kSignalIndices); ++i) {
      ok = ok && as_int(kSignalColumn + i, &(s.*kSignalIndices[i].field));
    }
    if (!ok) {
      return false;
    }
    s.ua_echo_agent = f[kAgentColumn];
    const auto first = ParseU64(f[kAgentColumn + 1]);
    const auto last = ParseU64(f[kAgentColumn + 2]);
    constexpr uint64_t kMaxTime =
        static_cast<uint64_t>(std::numeric_limits<TimeMs>::max());
    if (!first.has_value() || !last.has_value() || *first > kMaxTime || *last > kMaxTime) {
      return false;
    }
    r.first_request = static_cast<TimeMs>(*first);
    r.last_request = static_cast<TimeMs>(*last);
    index_by_id[r.session_id] = out->size();
    out->push_back(std::move(r));
  }

  std::ifstream events(events_path);
  if (!events) {
    return false;
  }
  if (!std::getline(events, line) || line != kEventsHeader) {
    return false;
  }
  while (std::getline(events, line)) {
    if (line.empty()) {
      continue;
    }
    if (line.size() > kMaxCsvLineBytes) {
      return false;
    }
    const std::vector<std::string> f = Split(line, ',');
    if (f.size() != 10) {
      return false;
    }
    const auto id = ParseU64(f[0]);
    if (!id.has_value()) {
      return false;
    }
    const auto it = index_by_id.find(*id);
    if (it == index_by_id.end()) {
      return false;  // Event for an unknown session.
    }
    if ((*out)[it->second].events.size() >= kMaxCsvEventsPerSession) {
      return false;
    }
    const auto kind = ParseU64(f[2]);
    const auto status = ParseU64(f[3]);
    // The kind column indexes the ResourceKind enum; casting an arbitrary
    // integer into the enum would hand out-of-range values to every switch
    // downstream. Status classes are single digits (0 = unknown).
    if (!kind.has_value() || *kind > static_cast<uint64_t>(ResourceKind::kOther) ||
        !status.has_value() || *status > 9) {
      return false;
    }
    RequestEvent e;
    e.kind = static_cast<ResourceKind>(*kind);
    e.status_class = static_cast<uint8_t>(*status);
    e.is_head = f[4] == "1";
    e.has_referrer = f[5] == "1";
    e.unseen_referrer = f[6] == "1";
    e.is_embedded = f[7] == "1";
    e.is_link_follow = f[8] == "1";
    e.is_favicon = f[9] == "1";
    (*out)[it->second].events.push_back(e);
  }
  return true;
}

}  // namespace robodet
