// Seeded fuzzing of the JavaScript lexer and emitter. The obfuscator
// re-lexes every script it builds and relies on EmitJs being LexJs's
// inverse, so: LexJs must survive arbitrary bytes (the sanitizer preset
// catches out-of-bounds reads), and on every input that lexes,
// Lex(Emit(Lex(x))) must equal Lex(x) token for token.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/js/generator.h"
#include "src/js/lexer.h"
#include "src/util/rng.h"

namespace robodet {
namespace {

class JsLexerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// Type, text and quote of each token; offsets differ between a source and
// its re-emission.
void ExpectSameTokens(const std::vector<JsToken>& a, const std::vector<JsToken>& b,
                      const std::string& source) {
  ASSERT_EQ(a.size(), b.size()) << source;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << "token " << i << " of " << source;
    EXPECT_EQ(a[i].text, b[i].text) << "token " << i << " of " << source;
    if (a[i].type == JsTokenType::kString) {
      EXPECT_EQ(a[i].quote, b[i].quote) << "token " << i << " of " << source;
    }
  }
}

// Lexes `source`; if it lexes, checks that re-emitting and re-lexing the
// tokens gives them back. Returns whether it lexed.
bool CheckRoundTrip(const std::string& source) {
  const JsLexResult lexed = LexJs(source);
  if (!lexed.ok) {
    EXPECT_FALSE(lexed.error.empty());
    return false;
  }
  EXPECT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens.back().type, JsTokenType::kEof);
  const std::string emitted = EmitJs(lexed.tokens);
  const JsLexResult relexed = LexJs(emitted);
  EXPECT_TRUE(relexed.ok) << relexed.error << " re-lexing " << emitted;
  if (relexed.ok) {
    ExpectSameTokens(lexed.tokens, relexed.tokens, source);
  }
  return true;
}

// Arbitrary bytes: most fail to lex; none may crash.
TEST_P(JsLexerFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    std::string source(rng.UniformU64(256), '\0');
    for (char& c : source) {
      c = static_cast<char>(rng.UniformU64(256));
    }
    CheckRoundTrip(source);
  }
}

// Bytes drawn from the dialect's own alphabet, so most inputs lex: words,
// numbers with stray dots, every punctuator character, both quotes,
// escapes, comments and newlines.
TEST_P(JsLexerFuzzTest, DialectSoupRoundTrips) {
  static const char* const kPieces[] = {
      "a",  "_b", "$",  "var", "if", "else", "0",  "7",  ".",  "..", "1.5", ".25",
      "=",  "==", "!",  "<",   ">",  "+",    "-",  "*",  "/",  "%",  "&&",  "||",
      "(",  ")",  "{",  "}",   "[",  "]",    ";",  ",",  "?",  ":",  "'",   "\"",
      "\\", "\\n", "\\'", " ", "\t", "\r",   "\n", "//", "/*", "*/", "x'y", "\"q\"",
  };
  Rng rng(GetParam() ^ 0x1e7);
  size_t lexed = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string source;
    const size_t pieces = 1 + rng.UniformU64(40);
    for (size_t p = 0; p < pieces; ++p) {
      source += kPieces[rng.UniformU64(std::size(kPieces))];
    }
    lexed += CheckRoundTrip(source) ? 1 : 0;
  }
  EXPECT_GT(lexed, 30u);  // The alphabet must keep exercising the round trip.
}

// Real beacon scripts with a few bytes overwritten or cut off.
TEST_P(JsLexerFuzzTest, MutatedBeaconScriptsRoundTrip) {
  Rng rng(GetParam() ^ 0xbeac0);
  BeaconSpec spec;
  spec.host = "www.example.com";
  spec.path_prefix = "/__rd/";
  spec.real_key = rng.HexKey128();
  spec.decoy_keys = {rng.HexKey128(), rng.HexKey128()};
  spec.obfuscation_level = static_cast<int>(GetParam() % 6);
  spec.pad_to_bytes = 512;
  const std::string script = GenerateBeaconScript(spec, rng).script_source;
  EXPECT_TRUE(CheckRoundTrip(script));
  static const char kBytes[] = "'\"\\/*.0a=;(\n ";
  for (int iter = 0; iter < 50; ++iter) {
    std::string mutated = script.substr(0, 1 + rng.UniformU64(script.size()));
    for (int k = 0; k < 3; ++k) {
      mutated[rng.UniformU64(mutated.size())] = kBytes[rng.UniformU64(sizeof(kBytes) - 1)];
    }
    CheckRoundTrip(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsLexerFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u));

}  // namespace
}  // namespace robodet
