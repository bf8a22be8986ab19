#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace robodet {

void RunningStats::Add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

void EmpiricalCdf::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::Quantile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest value with cumulative fraction >= q.
  const size_t n = samples_.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) {
    rank = 1;
  }
  return samples_[rank - 1];
}

double EmpiricalCdf::FractionAtOrBelow(double x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

std::string FormatPercent(double fraction, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace robodet
