#include "src/proxy/token_minter.h"

#include <cstdio>

#include "src/util/hash.h"

namespace robodet {
namespace {

constexpr size_t kRandomHexChars = 16;
constexpr size_t kMacHexChars = 8;
constexpr size_t kTokenChars = kRandomHexChars + kMacHexChars;

bool IsLowerHex(char c) { return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'); }

// Appends the low `chars` hex digits of `v`, most significant first.
void AppendHex(std::string& out, uint64_t v, size_t chars) {
  static const char kHex[] = "0123456789abcdef";
  out.resize(out.size() + chars);
  for (size_t i = out.size(); chars > 0; --chars) {
    out[--i] = kHex[v & 0xf];
    v >>= 4;
  }
}

}  // namespace

std::string TokenMinter::Mint() { return TokenOf(rng_->NextU64()); }

std::string TokenMinter::MintFor(uint64_t entropy) const {
  return TokenOf(Mix64(HashCombine(secret_, entropy)));
}

bool TokenMinter::Validate(std::string_view token) const {
  if (token.size() != kTokenChars) {
    return false;
  }
  for (char c : token) {
    if (!IsLowerHex(c)) {
      return false;
    }
  }
  std::string mac;  // Short enough to need no allocation.
  AppendHex(mac, Mac(token.substr(0, kRandomHexChars)), kMacHexChars);
  return mac == token.substr(kRandomHexChars);
}

uint64_t TokenMinter::SeedFor(std::string_view token) const {
  return HashCombine(secret_, Fnv1a(token));
}

std::string TokenMinter::TokenOf(uint64_t random) const {
  std::string token;
  token.reserve(kTokenChars);
  AppendHex(token, random, kRandomHexChars);
  AppendHex(token, Mac(token), kMacHexChars);
  return token;
}

uint64_t TokenMinter::Mac(std::string_view random_part) const {
  // FNV over the random half, keyed by folding the secret in twice. Not
  // cryptographic — the simulation needs unforgeability only against our
  // own robot models, which do not attempt MAC forgery.
  return HashCombine(Fnv1a(random_part, secret_ ^ kFnvOffset), secret_);
}

}  // namespace robodet
