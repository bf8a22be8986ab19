// Human activity detection (§2.1): a session is human when it has fetched
// a beacon image carrying the correct per-(client, page) key k — proof of
// a mouse/keyboard event handler firing. A session that executed the
// injected JavaScript (UA echo observed) but produced no such event is
// definitely a robot; so is one that fetched a wrong (decoy) key.
#ifndef ROBODET_SRC_CORE_HUMAN_ACTIVITY_DETECTOR_H_
#define ROBODET_SRC_CORE_HUMAN_ACTIVITY_DETECTOR_H_

#include "src/core/signals.h"
#include "src/core/verdict.h"

namespace robodet {

class HumanActivityDetector {
 public:
  Classification Classify(const SessionObservation& obs) const;
};

}  // namespace robodet

#endif  // ROBODET_SRC_CORE_HUMAN_ACTIVITY_DETECTOR_H_
