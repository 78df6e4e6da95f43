#include "dsl/feature_distribution.h"

#include <cmath>

#include "common/logging.h"
#include "dsl/feature_score_cache.h"

namespace fixy {

namespace {

// Majority class of a bundle's member observations (nullopt when empty).
std::optional<ObjectClass> BundleClass(const ObservationBundle& bundle) {
  if (bundle.observations.empty()) return std::nullopt;
  int counts[kNumObjectClasses] = {};
  for (const Observation& obs : bundle.observations) {
    ++counts[static_cast<int>(obs.object_class)];
  }
  int best = 0;
  for (int i = 1; i < kNumObjectClasses; ++i) {
    if (counts[i] > counts[best]) best = i;
  }
  return static_cast<ObjectClass>(best);
}

}  // namespace

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

std::optional<double> FeatureDistribution::RawTransform(
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

std::optional<double> FeatureDistribution::Transform(
    std::optional<double> value, std::optional<ObjectClass> cls) const {
  const std::optional<double> raw = RawTransform(value, cls);
  if (!raw.has_value()) return std::nullopt;
  return ApplyAofAndFloor(*raw);
}

void FeatureDistribution::RawScoreTrackObservations(
    const Track& track, double frame_rate_hz, RawTrackScores* out) const {
  FIXY_CHECK(feature_->kind() == FeatureKind::kObservation);
  const auto* f = static_cast<const ObservationFeature*>(feature_.get());
  out->Clear();
  FeatureContext ctx;
  ctx.frame_rate_hz = frame_rate_hz;
  for (const ObservationBundle& bundle : track.bundles()) {
    ctx.ego_position = bundle.ego_position;
    for (const Observation& obs : bundle.observations) {
      out->Push(RawTransform(f->Compute(obs, ctx), obs.object_class));
    }
  }
}

std::optional<double> FeatureDistribution::RawScoreBundle(
    const ObservationBundle& bundle, const FeatureContext& ctx) const {
  FIXY_CHECK(feature_->kind() == FeatureKind::kBundle);
  const auto* f = static_cast<const BundleFeature*>(feature_.get());
  return RawTransform(f->Compute(bundle, ctx), BundleClass(bundle));
}

std::optional<double> FeatureDistribution::RawScoreTransition(
    const ObservationBundle& from, const ObservationBundle& to,
    const FeatureContext& ctx) const {
  FIXY_CHECK(feature_->kind() == FeatureKind::kTransition);
  const auto* f = static_cast<const TransitionFeature*>(feature_.get());
  return RawTransform(f->Compute(from, to, ctx), BundleClass(from));
}

std::optional<double> FeatureDistribution::RawScoreTrack(
    const Track& track, const FeatureContext& ctx) const {
  FIXY_CHECK(feature_->kind() == FeatureKind::kTrack);
  const auto* f = static_cast<const TrackFeature*>(feature_.get());
  return RawTransform(f->Compute(track, ctx), track.MajorityClass());
}

std::optional<double> FeatureDistribution::ScoreObservation(
    const Observation& obs, const FeatureContext& ctx) const {
  FIXY_CHECK(feature_->kind() == FeatureKind::kObservation);
  const auto* f = static_cast<const ObservationFeature*>(feature_.get());
  return Transform(f->Compute(obs, ctx), obs.object_class);
}

std::optional<double> FeatureDistribution::ScoreBundle(
    const ObservationBundle& bundle, const FeatureContext& ctx) const {
  FIXY_CHECK(feature_->kind() == FeatureKind::kBundle);
  const auto* f = static_cast<const BundleFeature*>(feature_.get());
  return Transform(f->Compute(bundle, ctx), BundleClass(bundle));
}

std::optional<double> FeatureDistribution::ScoreTransition(
    const ObservationBundle& from, const ObservationBundle& to,
    const FeatureContext& ctx) const {
  FIXY_CHECK(feature_->kind() == FeatureKind::kTransition);
  const auto* f = static_cast<const TransitionFeature*>(feature_.get());
  return Transform(f->Compute(from, to, ctx), BundleClass(from));
}

std::optional<double> FeatureDistribution::ScoreTrack(
    const Track& track, const FeatureContext& ctx) const {
  FIXY_CHECK(feature_->kind() == FeatureKind::kTrack);
  const auto* f = static_cast<const TrackFeature*>(feature_.get());
  return Transform(f->Compute(track, ctx), track.MajorityClass());
}

}  // namespace fixy
