// Detection verdicts and the evidence trail behind them.
#ifndef ROBODET_SRC_CORE_VERDICT_H_
#define ROBODET_SRC_CORE_VERDICT_H_

#include <string>
#include <string_view>
#include <vector>

namespace robodet {

enum class Verdict {
  kUnknown,  // Not enough signal yet.
  kHuman,
  kRobot,
};

constexpr std::string_view VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kUnknown:
      return "unknown";
    case Verdict::kHuman:
      return "human";
    case Verdict::kRobot:
      return "robot";
  }
  return "unknown";
}

struct Evidence {
  // Which detector and which signal produced this piece of evidence; both
  // name string literals, so they copy nothing.
  std::string_view detector;
  std::string_view signal;
  // 1-based request index at which the signal fired.
  int request_index = 0;
  // Direction the evidence points.
  Verdict points_to = Verdict::kUnknown;
};

struct Classification {
  Verdict verdict = Verdict::kUnknown;
  // Request index at which the verdict was first reachable; 0 if unknown.
  int decided_at = 0;
  std::vector<Evidence> evidence;
};

// The signal behind a verdict: the first piece of evidence that points at
// it ("wrong_beacon_key", "css_probe_fetched", ...), or "none". This is the
// source label of robodet_verdict_total. Views into `classification`.
inline std::string_view VerdictSource(const Classification& classification) {
  for (const Evidence& evidence : classification.evidence) {
    if (evidence.points_to == classification.verdict) {
      return evidence.signal;
    }
  }
  return "none";
}

}  // namespace robodet

#endif  // ROBODET_SRC_CORE_VERDICT_H_
