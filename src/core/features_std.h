// The standard feature library: the five features of Table 2 in the paper.
//
//   | Name       | Type   | Description                              |
//   |------------|--------|------------------------------------------|
//   | Volume     | Obs.   | Class-conditional box volume             |
//   | Distance   | Obs.   | Distance to AV                           |
//   | Model only | Bundle | Selects bundles with model preds only    |
//   | Velocity   | Trans. | Class-conditional object velocity        |
//   | Count      | Track  | Filters tracks with two or fewer obs.    |
//
// Volume and Velocity are *learned* from existing labels; Distance, Model
// only, and Count are *manually specified* severity/filter distributions
// (Section 8.1: "Model only and count were manually specified features").
#ifndef FIXY_CORE_FEATURES_STD_H_
#define FIXY_CORE_FEATURES_STD_H_

#include "dsl/feature.h"
#include "dsl/feature_distribution.h"
#include "stats/distribution.h"

namespace fixy {

/// Class-conditional box volume of an observation (cubic meters).
class VolumeFeature final : public ObservationFeature {
 public:
  std::string name() const override { return "volume"; }
  bool class_conditional() const override { return true; }
  std::optional<double> Compute(const Observation& obs,
                                const FeatureContext& ctx) const override;
};

/// BEV distance from the observation's box center to the ego vehicle
/// (meters).
class DistanceFeature final : public ObservationFeature {
 public:
  std::string name() const override { return "distance"; }
  std::optional<double> Compute(const Observation& obs,
                                const FeatureContext& ctx) const override;
};

/// 1.0 when the bundle contains only model predictions, 0.0 otherwise.
class ModelOnlyFeature final : public BundleFeature {
 public:
  std::string name() const override { return "model_only"; }
  std::optional<double> Compute(const ObservationBundle& bundle,
                                const FeatureContext& ctx) const override;
};

/// Class-conditional instantaneous speed estimated from the offset of
/// bundle centers between adjacent bundles (meters/second).
class VelocityFeature final : public TransitionFeature {
 public:
  std::string name() const override { return "velocity"; }
  bool class_conditional() const override { return true; }
  std::optional<double> Compute(const ObservationBundle& from,
                                const ObservationBundle& to,
                                const FeatureContext& ctx) const override;
};

/// 1.0 when all observations in a bundle agree on object class, 0.0
/// otherwise — the Section 5.1 example bundle feature ("observations
/// within bundles should agree on object class"). The paper models it as a
/// Bernoulli; the learner, run with EstimatorKind::kCategorical, fits a
/// categorical over {0, 1} (add-one smoothing over the outcomes seen).
/// Strongly inconsistent bundles such as Figure 7's person/truck overlap
/// score low.
class ClassAgreementFeature final : public BundleFeature {
 public:
  std::string name() const override { return "class_agreement"; }
  std::optional<double> Compute(const ObservationBundle& bundle,
                                const FeatureContext& ctx) const override;
};

/// Total number of observations in a track.
class CountFeature final : public TrackFeature {
 public:
  std::string name() const override { return "count"; }
  std::optional<double> Compute(const Track& track,
                                const FeatureContext& ctx) const override;
};

/// Scale (meters) of the distance-severity falloff.
inline constexpr double kDistanceSeverityScaleMeters = 25.0;

/// Manual severity distribution for Distance:
/// exp(-d / kDistanceSeverityScaleMeters), so nearby objects (the
/// safety-relevant ones; the paper highlights errors within 20-25 m of the
/// AV) score close to 1 and far objects fade out.
stats::DistributionPtr MakeDistanceSeverityDistribution();

/// Manual distribution for ModelOnly: score 1 when the bundle is
/// model-only (value 1), score ~0 otherwise — the "AOF zeroes out any track
/// that contains any human proposals" behavior of Section 7, expressed as
/// a factor.
stats::DistributionPtr MakeModelOnlyDistribution();

/// Tracks with this many observations or fewer are implausible: the
/// count filter scores them ~0 (Table 2: "filters tracks with two or fewer
/// obs"), and the model-error application leaves them to the appear
/// assertion (Section 8.4).
inline constexpr size_t kMinTrackObservations = 2;

/// Manual filter distribution for Count: score ~0 for tracks with
/// kMinTrackObservations or fewer observations, 1 above.
stats::DistributionPtr MakeCountFilterDistribution();

}  // namespace fixy

#endif  // FIXY_CORE_FEATURES_STD_H_
