// Origin server over a SiteModel: resolves HTTP requests to responses.
// This is what sits behind the instrumenting proxy in every experiment.
#ifndef ROBODET_SRC_SITE_ORIGIN_SERVER_H_
#define ROBODET_SRC_SITE_ORIGIN_SERVER_H_

#include <string>

#include "src/http/origin_result.h"
#include "src/http/request.h"
#include "src/site/site_model.h"
#include "src/util/rng.h"

namespace robodet {

class OriginServer {
 public:
  explicit OriginServer(const SiteModel* site) : site_(site) {}

  // Resolves one request. Pages render HTML; CGI endpoints render a small
  // dynamic page (and occasionally redirect, which is what makes
  // RESPCODE_3XX% informative); static assets return deterministic filler
  // bytes; unknown paths 404.
  Response Handle(const Request& request);

  // Fallible form for the resilience layer: same resolution as Handle but
  // with a deterministic simulated service time (CGI renders cost more than
  // static assets). A healthy origin never reports errors; fault injection
  // is layered on top (see sim/fault_injector.h).
  OriginResult HandleOrigin(const Request& request);

 private:
  Response HandleBoard(const Request& request);

  const SiteModel* site_;  // Not owned.
  // Bulletin-board state (bounded; oldest posts scroll off).
  std::vector<std::string> board_posts_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_SITE_ORIGIN_SERVER_H_
