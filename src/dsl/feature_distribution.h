// FeatureDistribution: a feature bound to its learned distribution and an
// application objective function. The factor nodes of the compiled LOA
// graph (Section 4.3) reference these.
#ifndef FIXY_DSL_FEATURE_DISTRIBUTION_H_
#define FIXY_DSL_FEATURE_DISTRIBUTION_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dsl/aof.h"
#include "dsl/feature.h"
#include "stats/distribution.h"

namespace fixy {

/// A feature together with the distribution(s) learned for it offline and
/// the AOF applied at scoring time.
///
/// For class-conditional features (feature->class_conditional()), one
/// distribution is stored per object class; elements whose class was never
/// seen at training time produce no factor (nullopt score).
class FeatureDistribution {
 public:
  /// Non-class-conditional: one distribution for all elements.
  FeatureDistribution(FeaturePtr feature, stats::DistributionPtr distribution,
                      AofPtr aof = nullptr);

  /// Class-conditional: one distribution per class.
  FeatureDistribution(
      FeaturePtr feature,
      std::map<ObjectClass, stats::DistributionPtr> per_class_distributions,
      AofPtr aof = nullptr);

  const Feature& feature() const { return *feature_; }
  FeaturePtr feature_ptr() const { return feature_; }
  const Aof& aof() const { return *aof_; }

  /// Replaces the AOF (applications re-target the same learned
  /// distributions with different objectives, Section 7).
  FeatureDistribution WithAof(AofPtr aof) const;

  /// The raw (pre-AOF) score of one value ForEachFeatureValue hands over:
  /// nullopt when the feature did not apply; 0.0 for a degenerate
  /// (non-finite) value, the maximally-unlikely contract every
  /// application's AOF then ranks; otherwise RawLikelihood(value, cls).
  /// It never depends on the AOF, so specs that re-target one learned
  /// distribution with different AOFs (WithAof) share it: the
  /// feature-score cache stores these, and the factor graph feeds each
  /// through ApplyAofAndFloor.
  std::optional<double> RawScore(std::optional<double> value,
                                 std::optional<ObjectClass> cls) const;

  /// AOF application + the strict-positivity floor: the factor graph
  /// applies it per application to cached raw likelihoods.
  double ApplyAofAndFloor(double likelihood) const;

  /// The raw (pre-AOF) likelihood of a feature value for the given class.
  /// nullopt when no distribution covers the class.
  std::optional<double> RawLikelihood(double value,
                                      std::optional<ObjectClass> cls) const;

  /// Underlying distributions (exposed for serialization). Exactly one of
  /// the two is populated: global_distribution() is null for
  /// class-conditional features.
  const stats::DistributionPtr& global_distribution() const {
    return global_distribution_;
  }
  const std::map<ObjectClass, stats::DistributionPtr>&
  per_class_distributions() const {
    return per_class_;
  }

 private:
  /// The distribution covering `cls` (the global one, or the per-class
  /// entry); nullptr when none applies.
  const stats::Distribution* DistributionFor(
      std::optional<ObjectClass> cls) const;

  FeaturePtr feature_;
  stats::DistributionPtr global_distribution_;
  std::map<ObjectClass, stats::DistributionPtr> per_class_;
  AofPtr aof_;
};

/// The full LOA specification for one application: the set of feature
/// distributions that become factors in the compiled graph.
struct LoaSpec {
  std::vector<FeatureDistribution> feature_distributions;
};

}  // namespace fixy

#endif  // FIXY_DSL_FEATURE_DISTRIBUTION_H_
