// Shared rig for client-model tests: site + origin + proxy + gateway, and
// a loop that drives one client to completion.
#ifndef ROBODET_TESTS_SIM_SIM_TEST_UTIL_H_
#define ROBODET_TESTS_SIM_SIM_TEST_UTIL_H_

#include <memory>

#include "src/proxy/proxy_server.h"
#include "src/sim/client.h"
#include "src/sim/gateway.h"
#include "src/site/origin_server.h"
#include "src/site/site_model.h"

namespace robodet {

class SimRig {
 public:
  // The proxy is built from `config`, its host set to the site's.
  explicit SimRig(uint64_t seed = 11, ProxyConfig config = {}) {
    SiteConfig site_config;
    site_config.num_pages = 30;
    Rng site_rng(seed);
    site = SiteModel::Generate(site_config, site_rng);
    origin = std::make_unique<OriginServer>(&site);
    config.host = site.host();
    proxy = std::make_unique<ProxyServer>(
        config, &clock, [this](const Request& r) { return origin->Handle(r); }, seed ^ 0xf00d);
    gateway = std::make_unique<Gateway>(proxy.get(), &clock);
  }

  // Runs the client until it finishes (or a step cap, to catch livelock).
  void RunToCompletion(Client& client, int max_steps = 200000) {
    for (int i = 0; i < max_steps; ++i) {
      const auto delay = client.Step(clock.Now(), *gateway);
      if (!delay.has_value()) {
        return;
      }
      clock.Advance(std::max<TimeMs>(*delay, 1));
    }
    FAIL() << "client did not terminate within " << max_steps << " steps";
  }

  SessionState* SessionFor(const Client& client) {
    return proxy->sessions().Touch(
        SessionKey{client.identity().ip, client.identity().user_agent}, clock.Now());
  }

  SimClock clock;
  SiteModel site;
  std::unique_ptr<OriginServer> origin;
  std::unique_ptr<ProxyServer> proxy;
  std::unique_ptr<Gateway> gateway;
};

}  // namespace robodet

#endif  // ROBODET_TESTS_SIM_SIM_TEST_UTIL_H_
