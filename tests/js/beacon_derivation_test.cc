// The page path never builds the beacon script: it derives the real key
// and the handler code by replaying the generator's draws. These property
// tests pin that replay to the generator's real draw order, for every
// obfuscation level the replay supports and every decoy count the proxy
// is run with.
#include <gtest/gtest.h>

#include <string>

#include "src/js/generator.h"
#include "src/js/obfuscator.h"
#include "src/proxy/proxy_server.h"

namespace robodet {
namespace {

TEST(BeaconDerivationTest, HandlerMatchesGeneratorAtLevelsZeroToThree) {
  for (int level = 0; level <= 3; ++level) {
    for (size_t decoys = 0; decoys <= 8; ++decoys) {
      BeaconSpec spec;
      spec.host = "www.example.com";
      spec.path_prefix = "/__rd/";
      spec.obfuscation_level = level;
      spec.pad_to_bytes = 1024;
      for (uint64_t seed = 0; seed < 300; ++seed) {
        Rng keys(seed);
        spec.real_key = keys.HexKey128();
        spec.decoy_keys.clear();
        for (size_t d = 0; d < decoys; ++d) {
          spec.decoy_keys.push_back(keys.HexKey128());
        }
        Rng generated(seed * 7919 + decoys);
        Rng derived(seed * 7919 + decoys);
        ASSERT_EQ(DeriveBeaconHandler(spec, derived),
                  GenerateBeaconScript(spec, generated).handler_code)
            << "level " << level << " decoys " << decoys << " seed " << seed;
      }
    }
  }
}

class PageBeaconTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PageBeaconTest, DerivedKeyAndHandlerMatchBuiltBeacon) {
  ProxyConfig config;
  config.num_decoys = GetParam();
  SimClock clock;
  const ProxyServer proxy(config, &clock, [](const Request&) { return Response{}; }, 5);
  Rng token_rng(GetParam() + 1);
  for (int i = 0; i < 1000; ++i) {
    const std::string token = token_rng.HexKey128().substr(0, 24);
    std::string built_key;
    const GeneratedBeacon built = proxy.BuildBeaconForToken(token, &built_key);
    const ProxyServer::PageBeacon derived = proxy.DerivePageBeacon(token);
    ASSERT_EQ(derived.real_key, built_key) << "token " << token;
    ASSERT_EQ(derived.handler_code, built.handler_code) << "token " << token;
  }
}

INSTANTIATE_TEST_SUITE_P(Decoys, PageBeaconTest, ::testing::Values(0u, 1u, 4u, 8u));

TEST(BeaconDerivationTest, FreshIdentifierRedrawsOnCollision) {
  Rng stream(99);
  IdentifierSet fresh;
  const std::string first = DrawFreshIdentifier(stream, fresh);
  const std::string second = DrawFreshIdentifier(stream, fresh);
  ASSERT_NE(first, second);
  // Replaying the stream with its first name already taken must skip to
  // its second name and leave the stream where two draws leave it.
  Rng replay(99);
  IdentifierSet taken = {first};
  EXPECT_EQ(DrawFreshIdentifier(replay, taken), second);
  EXPECT_EQ(replay.NextU64(), stream.NextU64());
}

}  // namespace
}  // namespace robodet
