#include "testing/reference_kde.h"

#include <cmath>
#include <numbers>

namespace fixy::testing {

double ReferenceKdeDensity(std::span<const double> samples, double bandwidth,
                           double x) {
  double sum = 0.0;
  for (const double s : samples) {
    const double u = (x - s) / bandwidth;
    sum += std::exp(-0.5 * u * u);
  }
  return sum / (std::sqrt(2.0 * std::numbers::pi) * bandwidth *
                static_cast<double>(samples.size()));
}

}  // namespace fixy::testing
