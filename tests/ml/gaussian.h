// Normal samples for the classifier tests' synthetic corpora.
#ifndef ROBODET_TESTS_ML_GAUSSIAN_H_
#define ROBODET_TESTS_ML_GAUSSIAN_H_

#include <cmath>

#include "src/util/rng.h"

namespace robodet {

// Box-Muller: one normal draw from two uniform draws of `rng`.
inline double Gaussian(Rng& rng, double mean, double stddev) {
  double u1 = rng.UniformDouble();
  const double u2 = rng.UniformDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

}  // namespace robodet

#endif  // ROBODET_TESTS_ML_GAUSSIAN_H_
