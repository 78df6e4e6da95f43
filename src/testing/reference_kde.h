// A reference Gaussian KDE density, straight from the estimator's
// definition: the full sum over every sample with std::exp. No 8-bandwidth
// window, no SIMD kernel, no ln-density table. Tests state the production
// KDE's error bounds against it (DESIGN.md §11).
#ifndef FIXY_TESTING_REFERENCE_KDE_H_
#define FIXY_TESTING_REFERENCE_KDE_H_

#include <span>

namespace fixy::testing {

/// (1 / (sqrt(2 pi) h n)) * sum_i exp(-0.5 * ((x - s_i) / h)^2) over all
/// n `samples`, with bandwidth h.
double ReferenceKdeDensity(std::span<const double> samples, double bandwidth,
                           double x);

}  // namespace fixy::testing

#endif  // FIXY_TESTING_REFERENCE_KDE_H_
