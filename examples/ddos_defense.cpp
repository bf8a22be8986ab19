// ddos_defense: the paper's motivating use case (1) — "harnessing hundreds
// or thousands of compromised machines (zombies) to flood Web sites with
// distributed denial of service attacks". A zombie fleet floods the proxy
// while legitimate humans browse; we compare human experience and zombie
// throughput with the detection-driven rate limiter off and on.
//
// Build & run:  ./build/examples/ddos_defense [zombies]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <queue>
#include <vector>

#include "src/robodet.h"

namespace {

using namespace robodet;

struct RunResult {
  uint64_t zombie_requests = 0;
  uint64_t zombie_blocked = 0;
  uint64_t human_requests = 0;
  uint64_t human_blocked = 0;
  int humans_completed = 0;
  int humans_total = 0;
};

RunResult RunScenario(size_t zombies, bool enforce) {
  SiteConfig site_config;
  site_config.num_pages = 80;
  Rng site_rng(99);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  SimClock clock;

  ProxyConfig config;
  config.host = site.host();
  config.enable_policy = enforce;
  config.policy.max_cgi_per_minute = 20;
  config.policy.max_get_per_minute = 300;
  config.policy.min_observation = 5 * kSecond;
  ProxyServer proxy(config, &clock,
                    [&origin](const Request& r) { return origin.Handle(r); }, 7);
  Gateway gateway(&proxy, &clock);

  std::vector<std::unique_ptr<Client>> clients;
  Rng rng(13);
  constexpr int kHumans = 30;
  for (int i = 0; i < kHumans; ++i) {
    BrowserProfile profile = StandardBrowserProfiles()[i % 6];
    ClientIdentity id;
    id.ip = IpAddress(0x0a000000u + static_cast<uint32_t>(i) + 1);
    id.user_agent = profile.user_agent;
    id.is_human = true;
    HumanConfig human_config;
    human_config.min_pages = 6;
    human_config.max_pages = 10;
    clients.push_back(std::make_unique<HumanBrowserClient>(id, rng.Fork(), &site, profile,
                                                           human_config));
  }
  for (size_t z = 0; z < zombies; ++z) {
    ClientIdentity id;
    id.ip = IpAddress(0x0a100000u + static_cast<uint32_t>(z) + 1);
    id.user_agent = StandardBrowserProfiles()[z % 6].user_agent;  // Forged.
    RobotConfig zombie_config;
    zombie_config.request_interval_mean = 60;  // Flood pace.
    zombie_config.max_requests = 400;
    clients.push_back(
        std::make_unique<ZombieFloodClient>(id, rng.Fork(), &site, zombie_config));
  }

  using Item = std::pair<TimeMs, size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  for (size_t i = 0; i < clients.size(); ++i) {
    queue.emplace(static_cast<TimeMs>(rng.UniformU64(30 * kSecond)), i);
  }
  std::vector<bool> done(clients.size(), false);
  while (!queue.empty()) {
    const auto [when, idx] = queue.top();
    queue.pop();
    clock.AdvanceTo(when);
    const auto delay = clients[idx]->Step(clock.Now(), gateway);
    if (delay.has_value()) {
      queue.emplace(clock.Now() + std::max<TimeMs>(*delay, 1), idx);
    } else {
      done[idx] = true;
    }
  }

  RunResult result;
  result.humans_total = kHumans;
  for (size_t i = 0; i < clients.size(); ++i) {
    const FetchStats& stats = clients[i]->stats();
    if (clients[i]->identity().is_human) {
      result.human_requests += stats.requests;
      result.human_blocked += stats.blocked;
      // A human "completed" their visit if they were never cut off.
      if (stats.blocked == 0) {
        ++result.humans_completed;
      }
    } else {
      result.zombie_requests += stats.requests;
      result.zombie_blocked += stats.blocked;
    }
  }
  return result;
}

void Print(const char* label, const RunResult& r) {
  const double zombie_served =
      r.zombie_requests > 0
          ? 100.0 * static_cast<double>(r.zombie_requests - r.zombie_blocked) /
                static_cast<double>(r.zombie_requests)
          : 0.0;
  std::printf("%-16s zombie req %7llu (%.1f%% served)   humans finished %d/%d "
              "(%llu blocked req)\n",
              label, static_cast<unsigned long long>(r.zombie_requests), zombie_served,
              r.humans_completed, r.humans_total,
              static_cast<unsigned long long>(r.human_blocked));
}

}  // namespace

int main(int argc, char** argv) {
  const size_t zombies = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 120;
  std::printf("ddos_defense: %zu zombies + 30 humans against one proxy node\n\n", zombies);
  Print("policy off:", RunScenario(zombies, false));
  Print("policy on:", RunScenario(zombies, true));
  std::printf("\nWith detection-driven rate limiting, zombie floods are cut off after the\n"
              "observation window while every human session completes untouched — the\n"
              "asymmetry the paper's CoDeeN deployment relied on.\n");
  return 0;
}
