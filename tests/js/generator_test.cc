#include "src/js/generator.h"

#include <gtest/gtest.h>

#include "src/js/interpreter.h"
#include "src/js/obfuscator.h"

namespace robodet {
namespace {

BeaconSpec MakeSpec(int obfuscation_level, size_t decoys = 4) {
  BeaconSpec spec;
  spec.host = "www.example.com";
  spec.path_prefix = "/__rd/";
  spec.real_key = "00112233445566778899aabbccddeeff";
  for (size_t i = 0; i < decoys; ++i) {
    spec.decoy_keys.push_back("deadbeef0000000000000000000000" + std::to_string(10 + i));
  }
  spec.obfuscation_level = obfuscation_level;
  return spec;
}

class BeaconLevelTest : public ::testing::TestWithParam<int> {};

TEST_P(BeaconLevelTest, HandlerFetchesExactlyTheRealUrl) {
  Rng rng(1234 + GetParam());
  const BeaconSpec spec = MakeSpec(GetParam());
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);

  JsInterpreter interp(JsInterpreter::Config{"TestBrowser/1.0", 200000});
  const auto run = interp.Run(beacon.script_source);
  ASSERT_TRUE(run.ok) << run.error << "\n" << beacon.script_source;
  EXPECT_TRUE(interp.fetched_urls().empty());  // Idle until the event.

  const auto handler = interp.RunHandler(beacon.handler_code);
  ASSERT_TRUE(handler.ok) << handler.error;
  ASSERT_EQ(interp.fetched_urls().size(), 1u);
  EXPECT_EQ(interp.fetched_urls()[0], beacon.real_url);

  // Second event: guarded by the do-once flag.
  interp.ClearObservations();
  ASSERT_TRUE(interp.RunHandler(beacon.handler_code).ok);
  EXPECT_TRUE(interp.fetched_urls().empty());
}

INSTANTIATE_TEST_SUITE_P(Levels, BeaconLevelTest, ::testing::Values(0, 1, 2, 3));

TEST(GeneratorTest, RealUrlContainsKey) {
  Rng rng(7);
  const BeaconSpec spec = MakeSpec(0);
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
  EXPECT_EQ(beacon.real_url,
            "http://www.example.com/__rd/bk_00112233445566778899aabbccddeeff.jpg");
  EXPECT_EQ(beacon.decoy_urls.size(), 4u);
}

TEST(GeneratorTest, DecoysAppearInSource) {
  Rng rng(8);
  const BeaconSpec spec = MakeSpec(0);
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
  for (const std::string& decoy : beacon.decoy_urls) {
    EXPECT_NE(beacon.script_source.find(decoy), std::string::npos);
  }
  EXPECT_NE(beacon.script_source.find(beacon.real_url), std::string::npos);
}

TEST(GeneratorTest, DeterministicGivenSameRngState) {
  const BeaconSpec spec = MakeSpec(3);
  Rng rng1(42);
  Rng rng2(42);
  const GeneratedBeacon a = GenerateBeaconScript(spec, rng1);
  const GeneratedBeacon b = GenerateBeaconScript(spec, rng2);
  EXPECT_EQ(a.script_source, b.script_source);
  EXPECT_EQ(a.handler_code, b.handler_code);
  EXPECT_EQ(a.real_url, b.real_url);
}

TEST(GeneratorTest, ObfuscatedHandlerNameIsNotDispatch) {
  Rng rng(9);
  const BeaconSpec spec = MakeSpec(2);
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
  EXPECT_EQ(beacon.script_source.find("dispatch"), std::string::npos);
  EXPECT_EQ(beacon.script_source.find("fetch_0"), std::string::npos);
  EXPECT_NE(beacon.handler_code.find("return "), std::string::npos);
}

TEST(GeneratorTest, PaddingReachesTarget) {
  Rng rng(10);
  BeaconSpec spec = MakeSpec(3);
  spec.pad_to_bytes = 4096;
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
  EXPECT_GE(beacon.script_source.size(), 4096u);
}

TEST(GeneratorTest, ZeroDecoysStillWorks) {
  Rng rng(11);
  const BeaconSpec spec = MakeSpec(0, 0);
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);
  JsInterpreter interp(JsInterpreter::Config{"ua", 100000});
  ASSERT_TRUE(interp.Run(beacon.script_source).ok);
  ASSERT_TRUE(interp.RunHandler(beacon.handler_code).ok);
  ASSERT_EQ(interp.fetched_urls().size(), 1u);
  EXPECT_EQ(interp.fetched_urls()[0], beacon.real_url);
}

// Levels 1-3 build the script's tokens without writing or lexing its text.
// They must be the tokens LexJs reads from the level-0 text: obfuscating
// that text, after the same generator draws, gives the same script.
TEST(GeneratorTest, TokenBuiltLevelsMatchObfuscatingTheText) {
  for (int level = 1; level <= 3; ++level) {
    for (size_t decoys : {0u, 1u, 4u, 11u}) {
      BeaconSpec spec = MakeSpec(level, decoys);
      spec.pad_to_bytes = 1024;
      BeaconSpec plain = spec;
      plain.obfuscation_level = 0;
      ObfuscationOptions options;
      options.split_strings = level >= 2;
      options.junk_statements = level >= 3 ? 8 : 0;
      options.pad_to_bytes = level >= 3 ? spec.pad_to_bytes : 0;
      for (uint64_t seed = 0; seed < 50; ++seed) {
        Rng built_rng(seed);
        const GeneratedBeacon built = GenerateBeaconScript(spec, built_rng);
        Rng text_rng(seed);
        const std::string text = GenerateBeaconScript(plain, text_rng).script_source;
        const ObfuscationResult obfuscated = ObfuscateJs(text, options, text_rng);
        ASSERT_TRUE(obfuscated.ok) << obfuscated.error;
        ASSERT_EQ(built.script_source, obfuscated.source)
            << "level " << level << " decoys " << decoys << " seed " << seed;
        ASSERT_EQ(built.handler_code, "return " + obfuscated.RenamedOrSelf("dispatch") + "();");
        ASSERT_EQ(built_rng.NextU64(), text_rng.NextU64());
      }
    }
  }
}

TEST(UaEchoTest, ExecutionWritesStylesheetWithTokenAndAgent) {
  const std::string script =
      GenerateUaEchoScript("www.example.com", "/__rd/", "token123token123tokenxyz");
  JsInterpreter interp(JsInterpreter::Config{"Mozilla/5.0 (X11; Linux) Firefox/1.5", 100000});
  const auto r = interp.Run(script);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(interp.document_writes().size(), 1u);
  const std::string& written = interp.document_writes()[0];
  EXPECT_NE(written.find("ua_token123token123tokenxyz_"), std::string::npos);
  // Sanitized agent: lowercase, no spaces, '/' -> '-'.
  EXPECT_NE(written.find("mozilla-5.0(x11;linux)firefox-1.5"), std::string::npos);
  EXPECT_NE(written.find(".css"), std::string::npos);
}

struct ParseCase {
  std::string path;
  ProbeKind kind;
  std::string name;
  std::string agent;
};

TEST(ProbePathTest, ParsesEachShape) {
  const ParseCase cases[] = {
      {"/__rd/bk_aabb.jpg", ProbeKind::kBeaconImage, "aabb", ""},
      {"/__rd/bk_.jpg", ProbeKind::kNone, "", ""},  // Empty key.
      {"/other/bk_aabb.jpg", ProbeKind::kNone, "", ""},
      {"/__rd/bk_aabb.png", ProbeKind::kNone, "", ""},
      {"/__rd/cp_aabb.css", ProbeKind::kCssProbe, "aabb", ""},
      {"/__rd/ua_tok123_mozilla-5.0firefox.css", ProbeKind::kUaEcho, "tok123",
       "mozilla-5.0firefox"},
      {"/__rd/ua_only.css", ProbeKind::kUaEcho, "only", ""},
      {"/__rd/ua__agent.css", ProbeKind::kNone, "", ""},  // No token.
      {"/__rd/js_tok.js", ProbeKind::kBeaconScript, "tok", ""},
      {"/__rd/js_.js", ProbeKind::kNone, "", ""},
      {"/__rd/js_tok.css", ProbeKind::kNone, "", ""},
      // The longer stem wins; a captcha_img_ name with .cgi is a submission.
      {"/__rd/captcha_img_tok.jpg", ProbeKind::kCaptchaImage, "tok", ""},
      {"/__rd/captcha_tok.cgi", ProbeKind::kCaptchaSubmit, "tok", ""},
      {"/__rd/captcha_img_tok.cgi", ProbeKind::kCaptchaSubmit, "img_tok", ""},
      {"/__rd/captcha.html", ProbeKind::kCaptchaPage, "", ""},
      {"/__rd/ti.jpg", ProbeKind::kTransparentImage, "", ""},
      {"/__rd/ti.jpgx", ProbeKind::kNone, "", ""},
      {"/__rd/", ProbeKind::kNone, "", ""},
  };
  for (const ParseCase& c : cases) {
    const ParsedProbe parsed = ParseProbePath(c.path, "/__rd/");
    EXPECT_EQ(parsed.kind, c.kind) << c.path;
    EXPECT_EQ(parsed.name, c.name) << c.path;
    EXPECT_EQ(parsed.agent, c.agent) << c.path;
    EXPECT_EQ(ExtractBeaconKey(c.path, "/__rd/"),
              c.kind == ProbeKind::kBeaconImage ? c.name : "")
        << c.path;
  }
}

TEST(ProbePathTest, BuildThenParseRoundTripsEveryKind) {
  for (int k = 0; k < static_cast<int>(ProbeKind::kNone); ++k) {
    const auto kind = static_cast<ProbeKind>(k);
    const bool fixed = kind == ProbeKind::kCaptchaPage || kind == ProbeKind::kTransparentImage;
    const std::string name = fixed ? "" : kind == ProbeKind::kUaEcho ? "tok123_agent" : "tok123";
    const std::string path = ProbeUrl("/__rd/", kind, name);
    const ParsedProbe parsed = ParseProbePath(path, "/__rd/");
    EXPECT_EQ(parsed.kind, kind) << path;
    EXPECT_EQ(parsed.name, fixed ? "" : "tok123") << path;
    EXPECT_EQ(parsed.agent, kind == ProbeKind::kUaEcho ? "agent" : "") << path;
    // An absolute URL is the same path behind the scheme and host.
    EXPECT_EQ(ProbeUrl("http://www.example.com/__rd/", kind, name),
              "http://www.example.com" + path);
  }
  EXPECT_EQ(ProbeUrl("/__rd/", ProbeKind::kCssProbe, "t"), "/__rd/cp_t.css");
  EXPECT_EQ(ProbeUrl("/__rd/", ProbeKind::kTransparentImage), "/__rd/ti.jpg");
}

}  // namespace
}  // namespace robodet
