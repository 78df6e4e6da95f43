#include "dsl/feature_distribution.h"

#include <cmath>

#include "common/logging.h"

namespace fixy {

FeatureDistribution::FeatureDistribution(FeaturePtr feature,
                                         stats::DistributionPtr distribution,
                                         AofPtr aof)
    : feature_(std::move(feature)),
      global_distribution_(std::move(distribution)),
      aof_(aof != nullptr ? std::move(aof) : MakeIdentityAof()) {
  FIXY_CHECK(feature_ != nullptr);
  FIXY_CHECK(global_distribution_ != nullptr);
}

FeatureDistribution::FeatureDistribution(
    FeaturePtr feature,
    std::map<ObjectClass, stats::DistributionPtr> per_class_distributions,
    AofPtr aof)
    : feature_(std::move(feature)),
      per_class_(std::move(per_class_distributions)),
      aof_(aof != nullptr ? std::move(aof) : MakeIdentityAof()) {
  FIXY_CHECK(feature_ != nullptr);
}

FeatureDistribution FeatureDistribution::WithAof(AofPtr aof) const {
  FeatureDistribution copy = *this;
  copy.aof_ = aof != nullptr ? std::move(aof) : MakeIdentityAof();
  return copy;
}

const stats::Distribution* FeatureDistribution::DistributionFor(
    std::optional<ObjectClass> cls) const {
  if (global_distribution_ != nullptr) return global_distribution_.get();
  if (cls.has_value()) {
    const auto it = per_class_.find(*cls);
    if (it != per_class_.end()) return it->second.get();
  }
  return nullptr;
}

std::optional<double> FeatureDistribution::RawLikelihood(
    double value, std::optional<ObjectClass> cls) const {
  const stats::Distribution* dist = DistributionFor(cls);
  if (dist == nullptr) return std::nullopt;
  return dist->NormalizedScore(value);
}

double FeatureDistribution::ApplyAofAndFloor(double likelihood) const {
  double transformed = aof_->Apply(likelihood);
  // Keep the score strictly positive and finite so ln(.) stays finite
  // downstream and ranking comparisons stay well-ordered. The !(>= floor)
  // form also maps a NaN from a misbehaving user AOF to the floor.
  if (!(transformed >= stats::kScoreFloor)) transformed = stats::kScoreFloor;
  if (transformed > 1.0) transformed = 1.0;
  return transformed;
}

std::optional<double> FeatureDistribution::RawScore(
    std::optional<double> value, std::optional<ObjectClass> cls) const {
  if (!value.has_value()) return std::nullopt;
  if (!std::isfinite(*value)) {
    // Degenerate feature value (overflowed velocity, inf volume from a
    // huge-but-validated box): maximally unlikely. Feeding likelihood 0
    // through the AOF lets each application decide its rank — identity
    // AOFs score it at the floor, the model-error inverting AOF ranks it
    // first — instead of the non-finite value reaching an estimator,
    // where NaN comparisons are undefined.
    return 0.0;
  }
  return RawLikelihood(*value, cls);
}

}  // namespace fixy
