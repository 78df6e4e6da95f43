// The Distribution interface that learned feature distributions implement.
//
// Fixy scores observations by the likelihood of their feature values under
// distributions fit to existing organizational data (Section 5 of the
// paper). A Distribution reports both a raw density and a *normalized
// score* in (0, 1]: density divided by the distribution's mode density.
// The normalized score is what feature distributions feed through
// application objective functions into ln(.) during scoring (Section 6) —
// it is scale-free, so features with very different units (cubic meters,
// meters/second) are comparable.
#ifndef FIXY_STATS_DISTRIBUTION_H_
#define FIXY_STATS_DISTRIBUTION_H_

#include <cmath>
#include <memory>
#include <string>

namespace fixy::stats {

/// Floor applied to normalized scores so ln(.) stays finite. Chosen so a
/// single catastrophically unlikely feature dominates a component's score
/// without producing -inf.
inline constexpr double kScoreFloor = 1e-9;

/// Interface for univariate probability distributions (continuous densities
/// or discrete mass functions) used as learned feature distributions.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Probability density (or mass) at `x`. Non-negative.
  virtual double Density(double x) const = 0;

  /// Density at the distribution's mode; the normalization constant for
  /// NormalizedScore. Strictly positive for a fitted distribution.
  virtual double ModeDensity() const = 0;

  /// Density(x) / ModeDensity(), clamped to [kScoreFloor, 1].
  double NormalizedScore(double x) const {
    return NormalizedScoreFromDensity(Density(x));
  }

  /// The NormalizedScore clamp applied to an already-computed density —
  /// shared by the scalar and batch scoring paths so both produce
  /// identical values.
  double NormalizedScoreFromDensity(double density) const {
    const double mode = ModeDensity();
    if (mode <= 0.0) return kScoreFloor;
    const double s = density / mode;
    // !(>=) maps a NaN density (degenerate estimator input) to the floor
    // instead of letting it poison downstream ln(.) sums and sorts.
    if (!(s >= kScoreFloor)) return kScoreFloor;
    if (s > 1.0) return 1.0;
    return s;
  }

  /// Natural log of Density(x), floored to keep sums finite.
  double LogDensity(double x) const {
    const double d = Density(x);
    return std::log(d > kScoreFloor ? d : kScoreFloor);
  }

  /// Short human-readable description, e.g. "KDE(n=1200, bw=0.31)".
  virtual std::string ToString() const = 0;
};

using DistributionPtr = std::shared_ptr<const Distribution>;

}  // namespace fixy::stats

#endif  // FIXY_STATS_DISTRIBUTION_H_
