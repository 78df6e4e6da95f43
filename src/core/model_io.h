// Persistence for learned models: serializes fitted feature distributions,
// with the sufficient statistics they were fitted from, to JSON and
// reloads them, so the offline phase (Learn) and the online phase (Find,
// RankDataset) can run in different processes — e.g. learn once in a
// nightly job, rank in the labeling pipeline. There is one serializer
// pair: LearnedModelToJson / LearnedModelWithStatsFromJson, with the
// file wrappers SaveLearnedModel / LoadLearnedModelWithStats. An empty
// stats vector writes a distributions-only model, which ranks but cannot
// be folded into.
//
// Features themselves are code, not data, so deserialization resolves them
// by name through a FeatureRegistry; user-defined features are supported
// by registering them before loading.
//
// Serializable distribution types: GaussianKde, HistogramDensity,
// Gaussian, Bernoulli, Categorical (everything the learner fits). Manual
// Lambda distributions are application-side configuration and are never
// serialized.
#ifndef FIXY_CORE_MODEL_IO_H_
#define FIXY_CORE_MODEL_IO_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/learner.h"
#include "dsl/feature_distribution.h"
#include "json/json.h"

namespace fixy {

/// Maps feature names back to feature implementations at load time.
class FeatureRegistry {
 public:
  /// A registry pre-populated with the standard feature library (volume,
  /// velocity, count, distance, model_only, class_agreement).
  static FeatureRegistry Standard();

  /// Registers `feature` under feature->name(). Replaces any existing
  /// entry with the same name.
  void Register(FeaturePtr feature);

  /// Errors: NotFound if no feature with that name is registered.
  Result<FeaturePtr> Find(const std::string& name) const;

 private:
  std::map<std::string, FeaturePtr> features_;
};

/// Serializes one fitted distribution. Errors: Unimplemented for
/// non-serializable distribution types (e.g. LambdaDistribution).
Result<json::Value> DistributionToJson(const stats::Distribution& dist);

/// Reconstructs a distribution written by DistributionToJson.
Result<stats::DistributionPtr> DistributionFromJson(const json::Value& value);

/// Serializes one feature's sufficient statistics (core/learner.h) —
/// the mergeable state Fixy::LearnIncremental folds new scenes into.
Result<json::Value> FeatureStatsToJson(const FeatureStats& stats);

/// Reconstructs statistics written by FeatureStatsToJson.
Result<FeatureStats> FeatureStatsFromJson(const json::Value& value);

/// Serializes a learned model (a set of feature distributions) together
/// with the sufficient statistics it was fitted from (`stats` parallel to
/// `learned`; pass an empty vector to omit them). AOFs are not serialized
/// — they are per-application configuration. The document stays version
/// 1: each feature entry just gains a "stats" member, which
/// pre-incremental readers ignore.
Result<json::Value> LearnedModelToJson(
    const std::vector<FeatureDistribution>& learned,
    const std::vector<FeatureStats>& stats);

/// A loaded model, with sufficient statistics when the file carried them.
struct LoadedModel {
  std::vector<FeatureDistribution> distributions;
  /// Parallel to `distributions` when EVERY feature entry carried stats;
  /// empty otherwise (a model saved before incremental learning, which
  /// still ranks but cannot be folded into).
  std::vector<FeatureStats> stats;

  bool has_stats() const { return !stats.empty(); }
};

/// Reconstructs a learned model and its per-feature statistics; every
/// feature name in the document must resolve through `registry`. A
/// malformed "stats" member is an error (a file that claims stats must
/// carry valid ones); a file with no stats members loads with `stats`
/// empty.
Result<LoadedModel> LearnedModelWithStatsFromJson(
    const json::Value& value, const FeatureRegistry& registry);

/// File-level wrappers. SaveLearnedModel writes through WriteFileAtomic,
/// so a reader of `path` (a rank, a fixyd start, a `watch` poll) never
/// sees a half-written model, and a failed write keeps the old one.
Status SaveLearnedModel(const std::vector<FeatureDistribution>& learned,
                        const std::vector<FeatureStats>& stats,
                        const std::string& path);
Result<LoadedModel> LoadLearnedModelWithStats(const std::string& path,
                                              const FeatureRegistry& registry);

}  // namespace fixy

#endif  // FIXY_CORE_MODEL_IO_H_
