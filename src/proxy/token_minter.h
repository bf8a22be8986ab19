// Self-authenticating instrumentation tokens. Every probe URL the proxy
// injects (CSS probe, hidden link, UA echo, beacon script) carries a token
// of 16 random hex chars plus an 8-hex-char keyed MAC, so the proxy can
// validate a fetch — and deterministically re-derive the generated beacon
// script — without storing anything per token. Only the beacon *keys* k
// live in the KeyTable, as in the paper.
#ifndef ROBODET_SRC_PROXY_TOKEN_MINTER_H_
#define ROBODET_SRC_PROXY_TOKEN_MINTER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/rng.h"

namespace robodet {

class TokenMinter {
 public:
  // `secret` keys the MAC; `rng` supplies the random halves. The minter
  // borrows the rng (the proxy owns it).
  TokenMinter(uint64_t secret, Rng* rng) : secret_(secret), rng_(rng) {}

  // 24 lowercase hex chars: 16 random + 8 MAC.
  std::string Mint();

  // Deterministic variant for the serve path: the "random" half is derived
  // from `entropy` (keyed by the secret) instead of drawn from the shared
  // rng. Worker threads therefore never contend on the rng, and a request
  // with the same client timeline mints the same tokens in every run —
  // the invariant behind the parallel simulation driver's bit-identical
  // records. Tokens validate and seed exactly like Mint()ed ones.
  std::string MintFor(uint64_t entropy) const;

  // True iff the token was minted with our secret (length, charset and MAC
  // all check out).
  bool Validate(std::string_view token) const;

  // Deterministic per-token seed; used to regenerate the beacon script that
  // was served under this token instead of storing it.
  uint64_t SeedFor(std::string_view token) const;

 private:
  uint64_t Mac(std::string_view random_part) const;
  // The token whose random half spells `random`, built in one allocation.
  std::string TokenOf(uint64_t random) const;

  uint64_t secret_;
  Rng* rng_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_TOKEN_MINTER_H_
