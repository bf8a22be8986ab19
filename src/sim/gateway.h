// The client-side view of the proxy: simulated clients issue requests
// through a Gateway, which stamps them with simulated time and the
// client's identity and returns the proxy's response.
#ifndef ROBODET_SRC_SIM_GATEWAY_H_
#define ROBODET_SRC_SIM_GATEWAY_H_

#include <functional>
#include <string>
#include <string_view>

#include "src/http/request.h"
#include "src/proxy/proxy_server.h"
#include "src/util/clock.h"

namespace robodet {

struct ClientIdentity {
  IpAddress ip;
  // What the client puts in the User-Agent header (forgeable).
  std::string user_agent;
  // Ground truth for experiments.
  bool is_human = false;
  std::string type_name;
};

struct FetchStats {
  uint64_t requests = 0;
  uint64_t blocked = 0;
  uint64_t ok = 0;
  uint64_t redirects = 0;
  uint64_t errors = 0;
  // Requests served below full instrumentation (any ladder rung != full),
  // and the subset rejected outright by overload shedding.
  uint64_t degraded = 0;
  uint64_t shed = 0;
};

class Gateway {
 public:
  // Picks the proxy node that will see a given client's request (identity
  // function for single-node setups; ProxyCluster::Route for clusters).
  using ProxyRouter = std::function<ProxyServer*(const ClientIdentity&)>;

  Gateway(ProxyServer* proxy, SimClock* clock) : proxy_(proxy), clock_(clock) {}

  // Cluster form: `representative` answers config queries (all nodes share
  // one ProxyConfig); `router` picks the node per request.
  Gateway(ProxyServer* representative, ProxyRouter router, SimClock* clock)
      : proxy_(representative), router_(std::move(router)), clock_(clock) {}

  struct FetchResult {
    Response response;
    bool blocked = false;
  };

  FetchResult Fetch(const ClientIdentity& id, Method method, const Url& url,
                    std::string_view referrer, FetchStats* stats,
                    const Headers* extra_headers = nullptr);

  // Form submission: POST with a body.
  FetchResult Post(const ClientIdentity& id, const Url& url, std::string body,
                   std::string_view referrer, FetchStats* stats);

  const ProxyConfig& proxy_config() const { return proxy_->config(); }

 private:
  void RecordOutcome(const ProxyServer::Result& result, FetchStats* stats);

  ProxyServer* proxy_;  // Not owned; representative node for config reads.
  ProxyRouter router_;  // Empty for single-node gateways.
  SimClock* clock_;     // Not owned.
};

}  // namespace robodet

#endif  // ROBODET_SRC_SIM_GATEWAY_H_
