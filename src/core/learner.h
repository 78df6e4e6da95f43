// Offline distribution learning (Section 5.2 of the paper): "Fixy first
// exhaustively generates the features over the data and collects the scalar
// values. Then, for each feature, Fixy executes the fitting function over
// the values."
//
// The learner consumes existing organizational resources — the (possibly
// noisy) human labels already present in a training dataset — and fits one
// distribution per feature (per object class for class-conditional
// features).
#ifndef FIXY_CORE_LEARNER_H_
#define FIXY_CORE_LEARNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/scene.h"
#include "dsl/feature_distribution.h"
#include "dsl/track_builder.h"
#include "stats/sufficient.h"

namespace fixy {

/// Which estimator the learner fits for learned features. The paper's
/// default is KDE; the others exist for the estimator ablation.
enum class EstimatorKind {
  kKde = 0,
  kHistogram = 1,
  kGaussian = 2,
  /// Add-one-smoothed categorical over rounded values; for inherently
  /// discrete features such as track observation counts.
  kCategorical = 3,
};

const char* EstimatorKindToString(EstimatorKind kind);

/// Inverse of EstimatorKindToString. Errors: InvalidArgument for an
/// unknown name.
Result<EstimatorKind> EstimatorKindFromString(const std::string& name);

/// Minimum sample count required to fit a distribution. Classes with
/// fewer samples get no distribution (elements of that class contribute no
/// factor for the feature).
inline constexpr size_t kMinTrainingSamples = 5;

struct LearnerOptions {
  EstimatorKind estimator = EstimatorKind::kKde;

  /// Observation source the distributions are learned from. The paper
  /// learns from already-present (human) labels.
  ObservationSource source = ObservationSource::kHuman;

  /// Learn from every source instead of `source` alone. Required for
  /// cross-source bundle features such as class agreement ("consistency
  /// between observations of the same object in a single time step",
  /// Section 5.1), whose bundles only exist when sources are combined.
  bool all_sources = false;

  /// How training observations are assembled into tracks before feature
  /// extraction.
  TrackBuilderOptions track_builder;

  /// Capacity of the per-(feature, class) sample reservoir the KDE
  /// estimator's sufficient statistics keep (stats/sufficient.h). While a
  /// stream fits inside the reservoir the incremental fit is exactly the
  /// full fit; past it the KDE is fit from a uniform subsample and
  /// incremental-vs-refit divergence is bounded (DESIGN.md §14).
  uint64_t kde_reservoir_capacity = stats::kDefaultReservoirCapacity;

  /// Seed of the reservoirs' counter-based randomness. Part of the
  /// persisted model: reloading and folding more scenes continues the
  /// exact subsampling stream. The seed and the capacity are saved as JSON
  /// numbers, so Fold rejects either above json::kMaxExactInteger (2^53).
  uint64_t kde_reservoir_seed = 0;
};

/// Mergeable sufficient statistics of one value stream (one feature, one
/// class slot). Only the member the estimator needs is populated: moments
/// for Gaussian, the value multiset for histogram/categorical, the
/// reservoir for KDE.
struct SampleStats {
  stats::MomentStats moments;
  stats::ValueCounts counts;
  stats::ValueReservoir reservoir;

  /// Total values ever folded in, whatever the estimator.
  uint64_t n(EstimatorKind kind) const;
  void Add(double x, EstimatorKind kind);

  bool operator==(const SampleStats&) const = default;
};

/// Sufficient statistics for one learned feature, from which its
/// FeatureDistribution materializes.
struct FeatureStats {
  EstimatorKind estimator = EstimatorKind::kKde;
  bool class_conditional = false;
  /// Used when !class_conditional.
  SampleStats global;
  /// Every class with at least one training sample is tracked — including
  /// classes still below kMinTrainingSamples, so a later fold can push
  /// them over the threshold and materialize a distribution for them.
  std::map<ObjectClass, SampleStats> per_class;

  bool operator==(const FeatureStats&) const = default;
};

/// A learned model together with the statistics it materialized from.
/// `stats` is parallel to the feature list it was folded over;
/// `distributions` is parallel to it too, or empty before the first fit.
/// Keeping both lets Fixy::LearnIncremental fold new scenes in and
/// re-fit only what changed.
struct LearnedFeatureSet {
  std::vector<FeatureDistribution> distributions;
  std::vector<FeatureStats> stats;
};

/// Learns feature distributions for the given features from a training
/// dataset. There is one learning path, Fold: Learn is a fold into empty
/// statistics.
class DistributionLearner {
 public:
  explicit DistributionLearner(LearnerOptions options = {});

  /// Fits one FeatureDistribution per feature with the configured
  /// estimator: Fold over EmptyStats. Features whose values never
  /// materialize (or never reach kMinTrainingSamples for any class)
  /// produce an InvalidArgument error, since scoring with them would be
  /// vacuous.
  Result<std::vector<FeatureDistribution>> Learn(
      const Dataset& training, const std::vector<FeaturePtr>& features) const;

  /// Statistics of no values for `feature`, to be fitted with `estimator`.
  /// A list of these, one per feature, is what a first Fold starts from.
  FeatureStats EmptyStats(const Feature& feature,
                          EstimatorKind estimator) const;

  /// Folds `delta`'s feature values into `state.stats` (in dataset order,
  /// so folding A then B equals folding A+B) and re-fits the changed
  /// distributions. `state.stats[i]` holds feature i's statistics, which
  /// carry their own estimator. `state.distributions` is empty before the
  /// first fit (Learn, or a model load: a fold of no scenes), when every
  /// (feature, class) cell is fitted; otherwise distribution i must be
  /// feature i's, and a cell whose statistics the fold left unchanged
  /// keeps its fitted distribution (a fit is a pure function of its
  /// statistics, so reuse is byte-identical). Changed cells fit in
  /// parallel. On error `state` is left unchanged. Errors, all
  /// InvalidArgument, in this order: a kde_reservoir_seed or
  /// kde_reservoir_capacity above 2^53; a feature/stats/distribution shape
  /// or name mismatch; a feature with no class at kMinTrainingSamples
  /// after the fold (in feature order); a failed fit (in cell order, its
  /// message prefixed with the feature's name). Scene validation errors
  /// from track building come between the first two.
  Status Fold(const Dataset& delta, const std::vector<FeaturePtr>& features,
              LearnedFeatureSet& state) const;

  /// The finite raw values of one feature over a dataset: per class for
  /// class-conditional features, in `global` otherwise.
  struct CollectedValues {
    /// Values for non-class-conditional features.
    std::vector<double> global;
    /// Values per class for class-conditional features.
    std::map<ObjectClass, std::vector<double>> per_class;
  };

  /// Collects every (non-null) feature's values over the dataset through
  /// ForEachFeatureValue, one entry per feature, in dataset order,
  /// skipping non-finite values. Each scene's tracks are built once for
  /// all features. Exposed for tests.
  Result<std::vector<CollectedValues>> CollectValues(
      const Dataset& training, const std::vector<FeaturePtr>& features) const;

 private:
  /// A SampleStats seeded with this learner's reservoir configuration.
  SampleStats NewSampleStats() const;

  /// Fits one distribution from sufficient statistics (the kind decides
  /// which member is read).
  Result<stats::DistributionPtr> FitFromStats(const SampleStats& stats,
                                              EstimatorKind kind) const;

  LearnerOptions options_;
};

}  // namespace fixy

#endif  // FIXY_CORE_LEARNER_H_
