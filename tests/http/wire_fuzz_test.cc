// Hostile-input hardening for the wire parser: the proxy parses whatever
// bytes arrive on the socket, so ParseRequestText must never crash, never
// read out of bounds, and never accept a message that blows past the
// documented limits — whatever the input — and a message FrameRequest
// completes must parse as exactly the message it framed. Seeded generators
// cover random garbage, mutated-valid messages, adversarial header lines
// and boundary abuse.
#include "src/http/wire.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace robodet {
namespace {

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(rng.UniformU64(256)));
  }
  return out;
}

// Wire-ish garbage: the structural characters the parser keys on, in
// random order, so the fuzz input actually exercises line splitting,
// header parsing, and Content-Length handling instead of bailing at the
// first byte.
std::string RandomWireSoup(Rng& rng, size_t n) {
  static const char* const kPieces[] = {
      "GET ",    "POST ",     "HTTP/1.1", "HTTP/1.0",  "\r\n",  "\n",       "\r",
      ": ",      "Host: h",   "Content-Length: ",      "18446744073709551616",
      "999999",  "/a/b?q=1",  "http://x.test/p",       " ",     "\t",       ":",
      "Transfer-Encoding: chunked",       "X: y",      "a",     "\x00\x01", "é",
  };
  std::string out;
  while (out.size() < n) {
    out += kPieces[rng.UniformU64(sizeof(kPieces) / sizeof(kPieces[0]))];
  }
  return out;
}

void MutateBytes(Rng& rng, std::string& s, size_t flips) {
  if (s.empty()) {
    return;
  }
  for (size_t i = 0; i < flips; ++i) {
    s[rng.UniformU64(s.size())] = static_cast<char>(rng.UniformU64(256));
  }
}

constexpr std::string_view kValidRequest =
    "POST http://example.test/path/page.html?q=1 HTTP/1.1\r\n"
    "Host: example.test\r\n"
    "User-Agent: fuzz/1.0\r\n"
    "Content-Length: 9\r\n"
    "\r\n"
    "key=value";

class WireFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int round = 0; round < 64; ++round) {
    const std::string input = RandomBytes(rng, rng.UniformU64(4096));
    (void)ParseRequestText(input);
  }
}

TEST_P(WireFuzzTest, WireSoupNeverCrashesAndRespectsLimits) {
  Rng rng(GetParam() ^ 0x50a7dULL);
  for (int round = 0; round < 64; ++round) {
    const std::string input = RandomWireSoup(rng, 512 + rng.UniformU64(4096));
    const auto request = ParseRequestText(input);
    if (request) {
      EXPECT_LE(request.value->headers.entries().size(), kMaxWireHeaderCount);
      EXPECT_LE(request.value->body.size(), kMaxWireBodyBytes);
    }
  }
}

TEST_P(WireFuzzTest, MutatedValidMessagesNeverCrash) {
  Rng rng(GetParam() ^ 0xfacefeedULL);
  for (int round = 0; round < 64; ++round) {
    std::string req(kValidRequest);
    MutateBytes(rng, req, 1 + rng.UniformU64(8));
    (void)ParseRequestText(req);
  }
}

TEST_P(WireFuzzTest, TruncatedValidMessagesNeverCrash) {
  for (size_t cut = 0; cut <= kValidRequest.size(); ++cut) {
    (void)ParseRequestText(kValidRequest.substr(0, cut));
  }
}

// Header lines on which a framer and a parser that each keep a copy of
// the grammar can disagree: duplicate and padded lengths, bare LF,
// obs-fold, colon-less lines and whitespace before the colon.
constexpr std::string_view kAdversarialLines[] = {
    "Content-Length: 3\r\n",     "Content-Length: 3\r\nContent-Length: 3\r\n",
    "Content-Length:   3  \r\n", "Content-Length: 3\r\nContent-Length: 4\r\n",
    "Content-Length : 3\r\n",    "Content-Length\t: 3\r\n",
    " Content-Length: 3\r\n",    "\tX-Folded: y\r\n",
    "NoColonHere\r\n",           ": no-name\r\n",
    "X-Bare-Lf: y\n",             "Content-Length: 3\n",
    "Host : h.test\r\n",         "Connection: close\r\n",
};

// Whenever FrameRequest completes a message, parsing exactly those bytes
// fails only on resolving the target, never on header syntax the framer
// accepted, and the request carries the body the frame measured.
TEST_P(WireFuzzTest, FrameBoundaryIsParseBoundary) {
  Rng rng(GetParam() ^ 0xb0da12eULL);
  constexpr size_t kLines = sizeof(kAdversarialLines) / sizeof(kAdversarialLines[0]);
  for (int round = 0; round < 48; ++round) {
    std::string input;
    if (round % 3 == 0) {
      input = RandomWireSoup(rng, 32 + rng.UniformU64(320));
    } else {
      input = round % 2 == 0 ? "POST /p HTTP/1.1\r\nHost: h.test\r\n" : "GET /p HTTP/1.1\n";
      for (uint64_t n = 1 + rng.UniformU64(3); n > 0; --n) {
        input += kAdversarialLines[rng.UniformU64(kLines)];
      }
      input += rng.UniformU64(2) == 0 ? "\r\nabcdGET / HTTP/1.1\r\n\r\n" : "\n\nabcd";
      if (round % 5 == 0) {
        MutateBytes(rng, input, 1 + rng.UniformU64(3));
      }
    }
    for (size_t cut = 0; cut <= input.size(); ++cut) {
      const std::string_view prefix = std::string_view(input).substr(0, cut);
      const FramedRequest framed = FrameRequest(prefix);
      if (framed.status != FrameStatus::kComplete) {
        continue;
      }
      const auto parsed = ParseRequestText(prefix.substr(0, framed.consumed));
      if (!parsed) {
        EXPECT_NE(parsed.error.message.find("target"), std::string::npos)
            << parsed.error.message << " in " << testing::PrintToString(std::string(prefix));
        continue;
      }
      EXPECT_EQ(parsed.value->body.size(), framed.body_bytes)
          << testing::PrintToString(std::string(prefix));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                                           13u, 14u, 15u, 16u));

// Boundary abuse: each limit is enforced exactly, as a parse error rather
// than a partial message.
TEST(WireLimitsTest, RejectsOverlongHeaderLine) {
  std::string text = "GET http://h.test/ HTTP/1.1\r\nX-Big: ";
  text.append(kMaxWireLineBytes, 'a');
  text += "\r\n\r\n";
  const auto result = ParseRequestText(text);
  ASSERT_FALSE(result);
  EXPECT_NE(result.error.message.find("exceeds limit"), std::string::npos);
}

TEST(WireLimitsTest, RejectsTooManyHeaders) {
  std::string text = "GET http://h.test/ HTTP/1.1\r\n";
  for (size_t i = 0; i <= kMaxWireHeaderCount; ++i) {
    text += "X-" + std::to_string(i) + ": v\r\n";
  }
  text += "\r\n";
  const auto result = ParseRequestText(text);
  ASSERT_FALSE(result);
  EXPECT_NE(result.error.message.find("too many header"), std::string::npos);
}

TEST(WireLimitsTest, AcceptsExactlyMaxHeaders) {
  std::string text = "GET http://h.test/ HTTP/1.1\r\n";
  for (size_t i = 0; i < kMaxWireHeaderCount; ++i) {
    text += "X-" + std::to_string(i) + ": v\r\n";
  }
  text += "\r\n";
  EXPECT_TRUE(ParseRequestText(text));
}

TEST(WireLimitsTest, RejectsOversizeBody) {
  std::string text = "POST http://h.test/ HTTP/1.1\r\n\r\n";
  text.append(kMaxWireBodyBytes + 1, 'b');
  const auto result = ParseRequestText(text);
  ASSERT_FALSE(result);
  EXPECT_NE(result.error.message.find("body exceeds"), std::string::npos);
}

TEST(WireLimitsTest, RejectsOverlongStartLine) {
  std::string text = "GET /";
  text.append(kMaxWireLineBytes, 'p');
  text += " HTTP/1.1\r\n\r\n";
  const auto result = ParseRequestText(text);
  ASSERT_FALSE(result);
  EXPECT_NE(result.error.message.find("exceeds limit"), std::string::npos);
}

}  // namespace
}  // namespace robodet
