// Common Log Format ingestion: replay an Apache/Squid-style access log
// through robodet's session model so the offline classifiers (probe-deaf
// browser test, Table-2 ML features) can run over *real* traffic captures,
// not just simulated ones. The active probes (beacon, CSS, hidden link)
// need a live rewriting proxy and therefore cannot fire on a passive log;
// what remains is exactly the paper's §4.2 ML path plus the passive
// heuristics — which is the right degradation.
//
// Supported line shape (combined log format; the two trailing quoted
// fields are optional):
//   1.2.3.4 - - [06/Jan/2006:10:15:30 -0500] "GET /p/1.html HTTP/1.0" 200 2326
//       "http://ref.example.com/" "Mozilla/4.0 (compatible; MSIE 6.0)"
#ifndef ROBODET_SRC_SIM_CLF_IMPORT_H_
#define ROBODET_SRC_SIM_CLF_IMPORT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/http/request.h"
#include "src/sim/experiment.h"

namespace robodet {

struct ClfEntry {
  IpAddress ip;
  TimeMs time = 0;
  Method method = Method::kGet;
  // Request target as logged (path, possibly absolute URL for proxies).
  std::string target;
  int status = 0;
  uint64_t bytes = 0;
  std::string referrer;   // "-" normalized to empty.
  std::string user_agent; // "-" normalized to empty.
};

// Parses one log line. Returns nullopt on malformed lines (callers count
// and skip them — real logs always contain garbage).
std::optional<ClfEntry> ParseClfLine(std::string_view line);

// Parses a timestamp like "06/Jan/2006:10:15:30 -0500" to milliseconds
// since an arbitrary epoch (ordering and deltas are what matter; the zone
// offset is applied).
std::optional<TimeMs> ParseClfTimestamp(std::string_view stamp);

struct ClfReplayResult {
  std::vector<SessionRecord> records;  // truly_human is unknown: left false.
  size_t lines_total = 0;
  size_t lines_malformed = 0;
};

// Replays parsed entries (must be in log order) through the <IP, UA>
// session model with the proxy's one-hour idle split, producing
// SessionRecords with per-request events and the passive signals
// (robots.txt). Relative targets are taken to be on host "log.import".
// Ground-truth labels are not available from a log; records carry
// client_type "clf".
ClfReplayResult ReplayClfLog(const std::vector<std::string>& lines);

// Convenience: loads a file and replays it. Returns nullopt if the file
// cannot be read.
std::optional<ClfReplayResult> ReplayClfFile(const std::string& path);

}  // namespace robodet

#endif  // ROBODET_SRC_SIM_CLF_IMPORT_H_
