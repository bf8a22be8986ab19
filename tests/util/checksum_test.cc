// Conformance of the persistence CRC32C: the RFC 3720 §B.4 check vectors,
// agreement with a bytewise reference at every length and alignment the
// slicing loop and its tail can meet, and seed chaining. Every existing
// state directory depends on this function's value, bit for bit.
#include "src/util/checksum.h"

#include <gtest/gtest.h>

#include <string>

#include "src/util/rng.h"

namespace robodet {
namespace {

// The textbook one-byte-at-a-time CRC32C, the reference for the fast one.
uint32_t BitwiseCrc32c(std::string_view data, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return ~crc;
}

std::string Bytes(size_t n, int first, int step) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>(first + step * static_cast<int>(i));
  }
  return s;
}

TEST(Crc32cTest, Rfc3720Vectors) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string(32, '\x00')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(Bytes(32, 0, 1)), 0x46DD794Eu);   // 00 01 ... 1f
  EXPECT_EQ(Crc32c(Bytes(32, 31, -1)), 0x113FDB5Cu);  // 1f 1e ... 00
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(7);
  std::string buffer(300 + 8, '\0');
  for (char& c : buffer) {
    c = static_cast<char>(rng.UniformU64(256));
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::string_view piece = std::string_view(buffer).substr(align, len);
      ASSERT_EQ(Crc32c(piece), BitwiseCrc32c(piece)) << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, SeedChainsPieces) {
  Rng rng(11);
  std::string whole(1000, '\0');
  for (char& c : whole) {
    c = static_cast<char>(rng.UniformU64(256));
  }
  for (size_t cut : {0, 1, 7, 8, 9, 63, 500, 999, 1000}) {
    const std::string_view a = std::string_view(whole).substr(0, cut);
    const std::string_view b = std::string_view(whole).substr(cut);
    EXPECT_EQ(Crc32c(b, Crc32c(a)), Crc32c(whole)) << "cut " << cut;
    EXPECT_EQ(Crc32c(b, 0x12345678u), BitwiseCrc32c(b, 0x12345678u)) << "cut " << cut;
  }
}

}  // namespace
}  // namespace robodet
