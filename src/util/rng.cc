#include "src/util/rng.h"

#include <cmath>

namespace robodet {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& w : state_) {
    w = SplitMix64(s);
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::UniformDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return UniformDouble() < p;
}

double Rng::Exponential(double mean) {
  double u = UniformDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

size_t Rng::Zipf(size_t n, double s) {
  if (n <= 1) {
    return 0;
  }
  if (zipf_n_ != n || zipf_s_ != s) {
    zipf_cdf_.resize(n);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      zipf_cdf_[i] = acc;
    }
    const double total = acc;
    for (auto& c : zipf_cdf_) {
      c /= total;
    }
    zipf_n_ = n;
    zipf_s_ = s;
  }
  const double u = UniformDouble();
  // Binary search for the first index with cdf >= u.
  size_t lo = 0;
  size_t hi = n - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (zipf_cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::string Rng::HexKey128() {
  static const char kHex[] = "0123456789abcdef";
  std::string out(16 * kHexKey128Words, '0');
  for (int word = 0; word < kHexKey128Words; ++word) {
    const uint64_t v = NextU64();
    for (int i = 0; i < 16; ++i) {
      out[16 * word + i] = kHex[(v >> (60 - 4 * i)) & 0xf];
    }
  }
  return out;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    total += w > 0.0 ? w : 0.0;
  }
  if (total <= 0.0) {
    return weights.size();
  }
  double u = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (u < w) {
      return i;
    }
    u -= w;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace robodet
