#include "src/sim/population.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace robodet {
namespace {

SiteModel MakeSite() {
  SiteConfig config;
  config.num_pages = 30;
  Rng rng(5);
  return SiteModel::Generate(config, rng);
}

TEST(PopulationTest, TypeNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int t = 0; t < static_cast<int>(ClientType::kNumTypes); ++t) {
    names.insert(ClientTypeName(static_cast<ClientType>(t)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(ClientType::kNumTypes));
}

TEST(PopulationTest, OnlyHumanTypeIsHuman) {
  for (int t = 0; t < static_cast<int>(ClientType::kNumTypes); ++t) {
    const ClientType type = static_cast<ClientType>(t);
    EXPECT_EQ(IsHumanType(type), type == ClientType::kHuman);
  }
}

TEST(PopulationTest, IpsAreUniquePerIndex) {
  std::set<uint32_t> ips;
  for (uint32_t i = 0; i < 10000; ++i) {
    ips.insert(PopulationFactory::IpForIndex(i).value());
  }
  EXPECT_EQ(ips.size(), 10000u);
}

TEST(PopulationTest, SampleRespectsWeights) {
  const SiteModel site = MakeSite();
  PopulationMix mix;  // Defaults.
  PopulationFactory factory(&site, mix, 9);
  std::map<ClientType, int> counts;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[factory.SampleType()];
  }
  const std::vector<double>& weights = ClientTypeWeights();
  ASSERT_EQ(weights.size(), static_cast<size_t>(ClientType::kNumTypes));
  double total_weight = 0.0;
  for (double w : weights) {
    total_weight += w;
  }
  // Humans and the two dominant robot families should land near their
  // weight shares.
  const double human_share =
      static_cast<double>(counts[ClientType::kHuman]) / kSamples;
  EXPECT_NEAR(human_share,
              weights[static_cast<size_t>(ClientType::kHuman)] / total_weight, 0.01);
  const double spam_share =
      static_cast<double>(counts[ClientType::kReferrerSpammer]) / kSamples;
  EXPECT_NEAR(spam_share,
              weights[static_cast<size_t>(ClientType::kReferrerSpammer)] / total_weight, 0.015);
  // Zero-weight types never appear.
  EXPECT_EQ(counts[ClientType::kSmartBotFullMimic], 0);
}

TEST(PopulationTest, ClientCreationIsDeterministicPerSeed) {
  const SiteModel site = MakeSite();
  PopulationMix mix;
  PopulationFactory a(&site, mix, 123);
  PopulationFactory b(&site, mix, 123);
  for (uint32_t i = 0; i < 50; ++i) {
    const auto ca = a.CreateClient(i);
    const auto cb = b.CreateClient(i);
    EXPECT_EQ(ca->identity().type_name, cb->identity().type_name) << i;
    EXPECT_EQ(ca->identity().user_agent, cb->identity().user_agent) << i;
    EXPECT_EQ(ca->identity().ip.value(), cb->identity().ip.value()) << i;
  }
}

TEST(PopulationTest, HumansNeverForgeAndRobotsOftenDo) {
  const SiteModel site = MakeSite();
  PopulationMix mix;
  PopulationFactory factory(&site, mix, 31);
  int robots_with_browser_ua = 0;
  int robots = 0;
  for (uint32_t i = 0; i < 2000; ++i) {
    const auto client = factory.CreateClient(i);
    const ClientIdentity& id = client->identity();
    if (id.is_human) {
      // Human UA strings come from real profile strings.
      bool known = false;
      for (const BrowserProfile& p : StandardBrowserProfiles()) {
        known |= p.user_agent == id.user_agent;
      }
      known |= id.user_agent == TextBrowserProfile().user_agent;
      EXPECT_TRUE(known) << id.user_agent;
    } else if (id.type_name != "polite_crawler") {
      ++robots;
      for (const BrowserProfile& p : StandardBrowserProfiles()) {
        if (id.user_agent == p.user_agent) {
          ++robots_with_browser_ua;
          break;
        }
      }
    }
  }
  ASSERT_GT(robots, 100);
  // "We find that it is commonly forged in practice."
  EXPECT_GT(static_cast<double>(robots_with_browser_ua) / robots, 0.5);
}

}  // namespace
}  // namespace robodet
