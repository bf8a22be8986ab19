#include "src/core/attestation.h"

#include <gtest/gtest.h>

#include "src/core/human_activity_detector.h"
#include "src/sim/human_browser.h"
#include "src/sim/robots.h"
#include "tests/sim/sim_test_util.h"

namespace robodet {
namespace {

TEST(AttestationTest, ManufacturedDeviceVerifies) {
  AttestationAuthority authority;
  const TrustedInputDevice device = authority.ManufactureDevice();
  const std::string mac = device.Attest("beacon-key-123");
  EXPECT_TRUE(authority.Verify(device.device_id(), "beacon-key-123", mac));
}

TEST(AttestationTest, WrongPayloadOrDeviceFails) {
  AttestationAuthority authority;
  const TrustedInputDevice a = authority.ManufactureDevice();
  const TrustedInputDevice b = authority.ManufactureDevice();
  const std::string mac = a.Attest("payload");
  EXPECT_FALSE(authority.Verify(a.device_id(), "other-payload", mac));
  EXPECT_FALSE(authority.Verify(b.device_id(), "payload", mac));
  EXPECT_FALSE(authority.Verify(999, "payload", mac));
}

TEST(AttestationTest, ForeignAuthorityRejects) {
  AttestationAuthority authority_a(111);
  AttestationAuthority authority_b(222);
  const TrustedInputDevice device = authority_a.ManufactureDevice();
  // Same id range, different secrets: must not validate across authorities.
  authority_b.ManufactureDevice();
  EXPECT_FALSE(authority_b.Verify(device.device_id(), "p", device.Attest("p")));
}

TEST(AttestationTest, HeaderRoundTrip) {
  AttestationAuthority authority;
  const TrustedInputDevice device = authority.ManufactureDevice();
  const std::string header = device.HeaderValue("key");
  const auto parsed = AttestationAuthority::ParseHeader(header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->device_id, device.device_id());
  EXPECT_TRUE(authority.Verify(parsed->device_id, "key", parsed->mac));
}

TEST(AttestationTest, MalformedHeadersRejected) {
  EXPECT_FALSE(AttestationAuthority::ParseHeader("").has_value());
  EXPECT_FALSE(AttestationAuthority::ParseHeader("nocolon").has_value());
  EXPECT_FALSE(AttestationAuthority::ParseHeader("zzzz:mac").has_value());
  EXPECT_FALSE(
      AttestationAuthority::ParseHeader("0123456789abcdef0:mac").has_value());  // Too long.
}

// End-to-end: with attestation required, a real human with a trusted device
// still proves human; the §4.1 full-mimic bot no longer does.
TEST(AttestationTest, DefeatsFullMimicBot) {
  AttestationAuthority authority;
  ProxyConfig config;
  config.require_attestation = true;

  // Human with hardware.
  {
    SimRig rig(301, config);
    rig.proxy->set_attestation_authority(&authority);

    const TrustedInputDevice device = authority.ManufactureDevice();
    BrowserProfile profile = StandardBrowserProfiles()[1];
    ClientIdentity id;
    id.ip = IpAddress(5);
    id.user_agent = profile.user_agent;
    id.is_human = true;
    HumanConfig human_config;
    human_config.min_pages = 5;
    human_config.max_pages = 7;
    human_config.mouse_move_prob = 1.0;
    human_config.think_time_mean = 200;
    human_config.subfetch_delay = 5;
    HumanBrowserClient human(id, Rng(17), &rig.site, profile, human_config);
    human.set_input_device(&device);
    rig.RunToCompletion(human);

    const SessionSignals& sig = rig.SessionFor(human)->signals();
    EXPECT_GT(sig.mouse_event_at, 0);
    EXPECT_GT(sig.attested_mouse_at, 0);
    EXPECT_EQ(sig.unattested_event_at, 0);
    HumanActivityDetector detector;
    EXPECT_EQ(detector.Classify(rig.SessionFor(human)->observation()).verdict,
              Verdict::kHuman);
  }

  // Full-mimic bot without hardware.
  {
    SimRig rig(302, config);
    rig.proxy->set_attestation_authority(&authority);

    SmartBotConfig bot_config;
    bot_config.robot.max_requests = 60;
    bot_config.robot.request_interval_mean = 50;
    bot_config.mode = SmartBotMode::kInterpret;
    bot_config.synthesize_events = true;
    bot_config.engine_agent = "Mozilla/4.0 (compatible; MSIE 6.0)";
    ClientIdentity id;
    id.ip = IpAddress(6);
    id.user_agent = "Mozilla/4.0 (compatible; MSIE 6.0)";
    SmartBotClient bot(id, Rng(19), &rig.site, bot_config);
    rig.RunToCompletion(bot);

    const SessionSignals& sig = rig.SessionFor(bot)->signals();
    EXPECT_GT(sig.unattested_event_at, 0);  // Synthetic event flagged.
    EXPECT_EQ(sig.mouse_event_at, 0);       // No longer counts as a human proof.
    HumanActivityDetector detector;
    EXPECT_EQ(detector.Classify(rig.SessionFor(bot)->observation()).verdict,
              Verdict::kRobot);
  }
}

// Without the requirement flag, attestation is advisory: bare key matches
// still count (backwards compatible with the 2006 mechanism).
TEST(AttestationTest, OptionalModeKeepsLegacyBehaviour) {
  SimRig rig(303);
  AttestationAuthority authority;
  rig.proxy->set_attestation_authority(&authority);  // Wired but not required.

  BrowserProfile profile = StandardBrowserProfiles()[1];
  ClientIdentity id;
  id.ip = IpAddress(7);
  id.user_agent = profile.user_agent;
  id.is_human = true;
  HumanConfig human_config;
  human_config.min_pages = 5;
  human_config.max_pages = 7;
  human_config.mouse_move_prob = 1.0;
  human_config.think_time_mean = 200;
  human_config.subfetch_delay = 5;
  HumanBrowserClient human(id, Rng(23), &rig.site, profile, human_config);
  // No device at all.
  rig.RunToCompletion(human);
  const SessionSignals& sig = rig.SessionFor(human)->signals();
  EXPECT_GT(sig.mouse_event_at, 0);
  EXPECT_EQ(sig.attested_mouse_at, 0);
  EXPECT_EQ(sig.unattested_event_at, 0);
}

}  // namespace
}  // namespace robodet
