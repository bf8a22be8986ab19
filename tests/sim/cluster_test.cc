#include "src/sim/cluster.h"

#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "src/sim/human_browser.h"
#include "src/site/origin_server.h"

namespace robodet {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    SiteConfig site_config;
    site_config.num_pages = 30;
    Rng site_rng(61);
    site_ = SiteModel::Generate(site_config, site_rng);
    origin_ = std::make_unique<OriginServer>(&site_);
  }

  std::unique_ptr<ProxyCluster> MakeCluster(size_t nodes, double switch_prob,
                                            bool shared_keys = false) {
    ProxyConfig config;
    config.host = site_.host();
    return std::make_unique<ProxyCluster>(
        ProxyCluster::Config{nodes, switch_prob, shared_keys}, config, &clock_,
        [this](const Request& r) { return origin_->Handle(r); }, 71);
  }

  // A counter summed over every node's registry.
  static uint64_t SumOverNodes(ProxyCluster& cluster, std::string_view name,
                               const Labels& labels) {
    uint64_t sum = 0;
    for (size_t i = 0; i < cluster.size(); ++i) {
      sum += cluster.node(i).metrics().Scrape().CounterValue(name, labels);
    }
    return sum;
  }

  // Runs one JS-enabled human through the cluster; returns merged signals.
  SessionSignals RunHuman(ProxyCluster& cluster, uint32_t ip, uint64_t seed) {
    BrowserProfile profile = StandardBrowserProfiles()[1];
    ClientIdentity id;
    id.ip = IpAddress(ip);
    id.user_agent = profile.user_agent;
    id.is_human = true;
    HumanConfig config;
    config.min_pages = 6;
    config.max_pages = 9;
    config.mouse_move_prob = 1.0;
    config.think_time_mean = 200;
    config.subfetch_delay = 5;
    HumanBrowserClient human(id, Rng(seed), &site_, profile, config);
    Gateway gateway(&cluster.node(0),
                    [&cluster](const ClientIdentity& cid) { return cluster.Route(cid); },
                    &clock_);
    for (int steps = 0; steps < 100000; ++steps) {
      const auto delay = human.Step(clock_.Now(), gateway);
      if (!delay.has_value()) {
        break;
      }
      clock_.Advance(std::max<TimeMs>(*delay, 1));
    }
    return cluster.CombinedSignalsFor(id.ip, id.user_agent, clock_.Now());
  }

  SimClock clock_;
  SiteModel site_;
  std::unique_ptr<OriginServer> origin_;
};

TEST_F(ClusterTest, StickyRoutingIsDeterministicPerClient) {
  auto cluster = MakeCluster(4, 0.0);
  ClientIdentity id;
  id.ip = IpAddress(1234);
  ProxyServer* first = cluster->Route(id);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(cluster->Route(id), first);
  }
}

TEST_F(ClusterTest, SwitchingSpreadsAcrossNodes) {
  auto cluster = MakeCluster(4, 1.0);
  ClientIdentity id;
  id.ip = IpAddress(1234);
  std::set<ProxyServer*> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(cluster->Route(id));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST_F(ClusterTest, StickyClientProvesHumanAcrossCluster) {
  auto cluster = MakeCluster(4, 0.0);
  const SessionSignals signals = RunHuman(*cluster, 501, 5);
  EXPECT_GT(signals.mouse_event_at, 0);
  EXPECT_EQ(signals.wrong_key_at, 0);
  // All beacon traffic landed on a single node.
  EXPECT_GT(SumOverNodes(*cluster, "robodet_beacon_hits_total", {{"result", "ok"}}), 0u);
  EXPECT_EQ(SumOverNodes(*cluster, "robodet_beacon_hits_total", {{"result", "wrong_key"}}), 0u);
}

TEST_F(ClusterTest, NodeBouncingFragmentsDetection) {
  // With every request routed randomly, the page often comes from one node
  // while the beacon lands on another that never issued the key: genuine
  // humans start tripping wrong-key signals. (This is why per-node key
  // tables require sticky clients — or a shared table.)
  auto cluster = MakeCluster(4, 1.0);
  int wrong_keys = 0;
  for (uint32_t i = 0; i < 12; ++i) {
    const SessionSignals signals = RunHuman(*cluster, 600 + i, 100 + i);
    wrong_keys += signals.wrong_key_at > 0 ? 1 : 0;
  }
  EXPECT_GT(wrong_keys, 3);  // Detection demonstrably degrades.
}

TEST_F(ClusterTest, SharedKeyTableSurvivesNodeBouncing) {
  // Same 100% switching as NodeBouncingFragmentsDetection, but with the
  // cluster-wide key table: keys issued anywhere validate anywhere, so
  // humans keep their mouse proof and emit no wrong-key evidence.
  auto cluster = MakeCluster(4, 1.0, /*shared_keys=*/true);
  int wrong_keys = 0;
  int with_mouse = 0;
  for (uint32_t i = 0; i < 8; ++i) {
    const SessionSignals signals = RunHuman(*cluster, 900 + i, 300 + i);
    wrong_keys += signals.wrong_key_at > 0 ? 1 : 0;
    with_mouse += signals.mouse_event_at > 0 ? 1 : 0;
  }
  EXPECT_EQ(wrong_keys, 0);
  EXPECT_EQ(with_mouse, 8);
}

TEST_F(ClusterTest, SingleNodeClusterBehavesLikeOneProxy) {
  auto cluster = MakeCluster(1, 1.0);  // Switching is moot with one node.
  const SessionSignals signals = RunHuman(*cluster, 800, 11);
  EXPECT_GT(signals.mouse_event_at, 0);
  EXPECT_EQ(signals.wrong_key_at, 0);
}

}  // namespace
}  // namespace robodet
