#include "core/features_std.h"

#include <cmath>

#include "stats/lambda_distribution.h"

namespace fixy {

std::optional<double> VolumeFeature::Compute(const Observation& obs,
                                             const FeatureContext&) const {
  if (!obs.box.IsValid()) return std::nullopt;
  return obs.box.Volume();
}

std::optional<double> DistanceFeature::Compute(const Observation& obs,
                                               const FeatureContext& ctx) const {
  return obs.box.BevCenterDistance(ctx.ego_position);
}

std::optional<double> ModelOnlyFeature::Compute(
    const ObservationBundle& bundle, const FeatureContext&) const {
  if (bundle.observations.empty()) return std::nullopt;
  for (const Observation& obs : bundle.observations) {
    if (obs.source != ObservationSource::kModel) return 0.0;
  }
  return 1.0;
}

std::optional<double> VelocityFeature::Compute(const ObservationBundle& from,
                                               const ObservationBundle& to,
                                               const FeatureContext&) const {
  const double dt = to.timestamp - from.timestamp;
  if (dt <= 0.0) return std::nullopt;
  const geom::Vec2 displacement =
      to.MeanCenter().Xy() - from.MeanCenter().Xy();
  return displacement.Norm() / dt;
}

std::optional<double> ClassAgreementFeature::Compute(
    const ObservationBundle& bundle, const FeatureContext&) const {
  if (bundle.observations.size() < 2) return std::nullopt;
  const ObjectClass first = bundle.observations.front().object_class;
  for (const Observation& obs : bundle.observations) {
    if (obs.object_class != first) return 0.0;
  }
  return 1.0;
}

std::optional<double> CountFeature::Compute(const Track& track,
                                            const FeatureContext&) const {
  return static_cast<double>(track.TotalObservations());
}

stats::DistributionPtr MakeDistanceSeverityDistribution() {
  return std::make_shared<stats::LambdaDistribution>(
      "distance_severity", [](double d) {
        return std::exp(-std::max(0.0, d) / kDistanceSeverityScaleMeters);
      });
}

stats::DistributionPtr MakeModelOnlyDistribution() {
  return std::make_shared<stats::LambdaDistribution>(
      "model_only", [](double x) { return x >= 0.5 ? 1.0 : 0.0; });
}

stats::DistributionPtr MakeCountFilterDistribution() {
  return std::make_shared<stats::LambdaDistribution>(
      "count_filter", [](double count) {
        return count > static_cast<double>(kMinTrackObservations) ? 1.0 : 0.0;
      });
}

}  // namespace fixy
