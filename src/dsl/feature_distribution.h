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

struct RawTrackScores;

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

  /// Scores an element of the matching kind: computes the feature value,
  /// looks up the (per-class) distribution, converts the value to a
  /// normalized likelihood in (0, 1], and applies the AOF. Returns nullopt
  /// when the feature does not apply or no distribution is available for
  /// the element's class. Aborts if the feature kind does not match the
  /// element type.
  std::optional<double> ScoreObservation(const Observation& obs,
                                         const FeatureContext& ctx) const;

  std::optional<double> ScoreBundle(const ObservationBundle& bundle,
                                    const FeatureContext& ctx) const;
  std::optional<double> ScoreTransition(const ObservationBundle& from,
                                        const ObservationBundle& to,
                                        const FeatureContext& ctx) const;
  std::optional<double> ScoreTrack(const Track& track,
                                   const FeatureContext& ctx) const;

  /// Raw (pre-AOF) variants of the scoring entry points, used by the
  /// shared feature-score cache: the returned likelihoods depend only on
  /// the feature and its distributions, never on the AOF, so two specs
  /// that re-target the same learned distribution with different AOFs
  /// (WithAof) share them. Feeding a raw value through ApplyAofAndFloor
  /// reproduces the corresponding Score* result bit for bit. A degenerate
  /// (non-finite) feature value yields raw likelihood 0.0 — the same
  /// maximally-unlikely contract the scoring path applies before its AOF.
  ///
  /// The batch form is ScoreObservation's raw counterpart for every
  /// observation of `track`: it overwrites `*out` with one entry per
  /// observation in bundle-major order (the factor-graph compilation
  /// order), structure-of-arrays (see RawTrackScores).
  void RawScoreTrackObservations(const Track& track, double frame_rate_hz,
                                 RawTrackScores* out) const;
  std::optional<double> RawScoreBundle(const ObservationBundle& bundle,
                                       const FeatureContext& ctx) const;
  std::optional<double> RawScoreTransition(const ObservationBundle& from,
                                           const ObservationBundle& to,
                                           const FeatureContext& ctx) const;
  std::optional<double> RawScoreTrack(const Track& track,
                                      const FeatureContext& ctx) const;

  /// AOF application + the strict-positivity floor, shared by the scalar
  /// scoring path and the factor graph, which applies it per application
  /// to cached raw likelihoods.
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
  std::optional<double> Transform(std::optional<double> value,
                                  std::optional<ObjectClass> cls) const;

  /// Raw half of Transform: degenerate values map to likelihood 0.0,
  /// missing values/distributions to nullopt, everything else to the
  /// distribution's normalized likelihood. Transform is RawTransform
  /// followed by ApplyAofAndFloor.
  std::optional<double> RawTransform(std::optional<double> value,
                                     std::optional<ObjectClass> cls) const;

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
