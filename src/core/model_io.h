// Persistence for learned models, so the offline phase (Learn) and the
// online phase (Find, RankDataset) can run in different processes — e.g.
// learn once in a nightly job, rank in the labeling pipeline. A model file
// holds each learned feature's sufficient statistics (core/learner.h) and
// nothing else: a load parses them and fits every distribution with one
// DistributionLearner::Fold of no scenes, the fit Learn and
// LearnIncremental run, so a loaded model is exactly the learned one and
// can be folded into. There is one serializer pair: LearnedModelToJson /
// LearnedModelWithStatsFromJson, with the file wrappers SaveLearnedModel
// / LoadLearnedModelWithStats.
//
// Features themselves are code, not data, so deserialization resolves them
// by name through a FeatureRegistry; user-defined features are supported
// by registering them before loading. AOFs and manual Lambda
// distributions are application-side configuration and are never
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

/// Serializes a learned model: one {"feature", "stats"} entry per
/// feature, `stats` parallel to `learned` (which supplies the names).
/// The document is version 1. Older writers of version 1 also stored each
/// fitted distribution beside its statistics; a load ignores those
/// members. Errors: InvalidArgument unless `stats` is parallel to
/// `learned`.
Result<json::Value> LearnedModelToJson(
    const std::vector<FeatureDistribution>& learned,
    const std::vector<FeatureStats>& stats);

/// A loaded model: the fitted distributions and, parallel to them, the
/// statistics they were fitted from.
using LoadedModel = LearnedFeatureSet;

/// Reconstructs a learned model from its statistics; every feature name
/// in the document must resolve through `registry` (NotFound otherwise).
/// Errors: InvalidArgument for a malformed document, an entry without
/// "stats" (a model saved before incremental learning: re-run `fixy_cli
/// learn`) or malformed statistics, naming the feature; then the
/// learner's Fold errors.
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
