// Small statistics toolkit for the benchmark harnesses that regenerate
// the paper's figures: running means, empirical CDFs and percent
// formatting.
#ifndef ROBODET_SRC_UTIL_STATS_H_
#define ROBODET_SRC_UTIL_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace robodet {

// Running mean without storing the samples (Welford's update).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
};

// Empirical CDF over stored samples. Samples are sorted lazily on first
// query after an insertion.
class EmpiricalCdf {
 public:
  void Add(double x);

  size_t count() const { return samples_.size(); }

  // Value v such that a fraction `q` (in [0,1]) of samples are <= v.
  // Empty CDF returns 0. Uses the nearest-rank method, matching how the
  // paper reads "95% of humans are detected within the first 57 requests".
  double Quantile(double q) const;

  // Fraction of samples <= x.
  double FractionAtOrBelow(double x) const;

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Formats 0.289 -> "28.9%".
std::string FormatPercent(double fraction, int decimals = 1);

}  // namespace robodet

#endif  // ROBODET_SRC_UTIL_STATS_H_
