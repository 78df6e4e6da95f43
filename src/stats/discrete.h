// Discrete feature distributions: a categorical over integer values (e.g.
// track observation counts, or the {0, 1} outcomes of "classes within a
// bundle agree", for which Section 5.1 of the paper names a Bernoulli).
#ifndef FIXY_STATS_DISCRETE_H_
#define FIXY_STATS_DISCRETE_H_

#include <map>

#include "common/result.h"
#include "stats/distribution.h"
#include "stats/sufficient.h"

namespace fixy::stats {

/// Categorical distribution over integer values; mass of round(x).
class Categorical final : public Distribution {
 public:
  /// Fits by counting rounded values, with add-one smoothing over the
  /// observed support. Reads each distinct value once, so the work and
  /// memory follow the distinct values, not the count they claim.
  /// Errors: InvalidArgument for no values or a non-finite one.
  static Result<Categorical> Fit(const ValueCounts& values);

  double Density(double x) const override;
  double ModeDensity() const override;
  std::string ToString() const override;

  /// Probability mass of the integer value `v` (0 if unseen).
  double Mass(long v) const;

  /// The full mass function.
  const std::map<long, double>& mass() const { return mass_; }

 private:
  explicit Categorical(std::map<long, double> mass);

  std::map<long, double> mass_;
  double mode_ = 0.0;
};

}  // namespace fixy::stats

#endif  // FIXY_STATS_DISCRETE_H_
