// Deterministic pseudo-random number generation for simulation and key
// material. All randomness in robodet flows through Rng so that every
// experiment is reproducible from a single seed.
#ifndef ROBODET_SRC_UTIL_RNG_H_
#define ROBODET_SRC_UTIL_RNG_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace robodet {

// xoshiro256++ 1.0 by Blackman & Vigna: fast, high-quality, 256-bit state.
// Not cryptographic; beacon keys in a real deployment would come from a
// CSPRNG, but for simulation determinism is the property we need.
class Rng {
 public:
  // Seeds the four state words via SplitMix64 so that nearby seeds give
  // unrelated streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next raw 64-bit output.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound); bound == 0 returns 0. Uses rejection sampling to
  // avoid modulo bias. Inline, so a constant bound divides by multiplying.
  uint64_t UniformU64(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    // Rejection sampling: discard the biased tail of the 64-bit range.
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = NextU64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double UniformDouble();

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Zipf-distributed rank in [0, n) with exponent s (s >= 0; s == 0 is
  // uniform). Uses a cached normalization table per (n, s).
  size_t Zipf(size_t n, double s);

  // 128-bit random key rendered as 32 lowercase hex characters. This is the
  // k of the paper's beacon URLs, k in [0, 2^128).
  std::string HexKey128();
  // Advances the stream past `count` HexKey128 draws without formatting them.
  void SkipHexKeys128(size_t count) {
    for (size_t i = 0; i < count * kHexKey128Words; ++i) {
      NextU64();
    }
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    if (v.empty()) {
      return;
    }
    for (size_t i = v.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformU64(i + 1));
      std::swap(v[i], v[j]);
    }
  }

  // Picks one element index weighted by `weights` (non-negative, not all
  // zero). Returns weights.size() on a degenerate all-zero input.
  size_t WeightedIndex(const std::vector<double>& weights);

  // Derives an independent child generator; used to give each simulated
  // client its own stream so that adding clients does not perturb others.
  Rng Fork();

 private:
  // The words of the stream one HexKey128 takes.
  static constexpr int kHexKey128Words = 2;

  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<uint64_t, 4> state_;
  // Cached Zipf normalization: harmonic sums for the last (n, s) requested.
  size_t zipf_n_ = 0;
  double zipf_s_ = -1.0;
  std::vector<double> zipf_cdf_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_UTIL_RNG_H_
