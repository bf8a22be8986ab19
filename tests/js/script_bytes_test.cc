// Byte-identity guard for the beacon generator: for every obfuscation level
// (0-5) and decoy count (0, 4, 16), eight seeded specs are generated and a
// digest of each script, its handler and the generator's next draw is
// pinned. The expected digests are constants: any change to the scripts the
// generator builds, or to how many draws it takes, shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/js/generator.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace robodet {
namespace {

struct PinCase {
  int level;
  size_t decoys;
  uint64_t digest;
};

class ScriptBytesTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(ScriptBytesTest, ScriptsMatchPinnedDigest) {
  const PinCase& c = GetParam();
  uint64_t digest = kFnvOffset;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng key_rng(0x5c21 * seed + c.decoys);
    BeaconSpec spec;
    spec.host = "www.example.com";
    spec.path_prefix = "/__rd/";
    spec.real_key = key_rng.HexKey128();
    for (size_t i = 0; i < c.decoys; ++i) {
      spec.decoy_keys.push_back(key_rng.HexKey128());
    }
    spec.obfuscation_level = c.level;
    spec.pad_to_bytes = 1024;
    Rng rng(seed);
    const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
    digest = Fnv1a(beacon.script_source, digest);
    digest = Fnv1a(beacon.handler_code, digest);
    digest = HashCombine(digest, rng.NextU64());
  }
  EXPECT_EQ(digest, c.digest) << "level " << c.level << " decoys " << c.decoys << ": 0x"
                              << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndDecoys, ScriptBytesTest,
    ::testing::Values(
        PinCase{0, 0, 0x5d145a9abbfb0339ULL},
        PinCase{0, 4, 0x25920b00360631c0ULL},
        PinCase{0, 16, 0xfd79217c41367bdULL},
        PinCase{1, 0, 0x9bedfd72466b15b6ULL},
        PinCase{1, 4, 0x1300b176373e7b18ULL},
        PinCase{1, 16, 0x13a08ac62d09974dULL},
        PinCase{2, 0, 0xb2781543f05a6fbdULL},
        PinCase{2, 4, 0xbf317670612a733eULL},
        PinCase{2, 16, 0x3af50a7a5d5cbee8ULL},
        PinCase{3, 0, 0x43a6586ebe1df240ULL},
        PinCase{3, 4, 0xad27a1b6c7aaa2d9ULL},
        PinCase{3, 16, 0xe7775e18dfe28255ULL},
        PinCase{4, 0, 0xbd33ae87a80b21e1ULL},
        PinCase{4, 4, 0xc6bc979189cce202ULL},
        PinCase{4, 16, 0x83834be0a54a734ULL},
        PinCase{5, 0, 0x86212105bfa4dc77ULL},
        PinCase{5, 4, 0x66a998ee3dee6835ULL},
        PinCase{5, 16, 0x746933d07d6c91feULL}));

}  // namespace
}  // namespace robodet
