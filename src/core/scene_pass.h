// ScenePass: the shared, association-once stage of the two-stage ranking
// pipeline (DESIGN.md §10). One pass per scene runs TrackBuilder::BuildViews
// exactly once and owns a per-view FeatureScoreCache of raw pre-AOF feature
// scores; every requested application then compiles and scores against the
// shared views through RunApplicationOnPass. Every ranking call of the Fixy
// engine runs these two steps; a caller ranking against a spec of its own
// (an ablation, a test of spec caching) runs them directly.
#ifndef FIXY_CORE_SCENE_PASS_H_
#define FIXY_CORE_SCENE_PASS_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/app_spec.h"
#include "core/proposal.h"
#include "data/scene.h"
#include "dsl/feature_score_cache.h"
#include "dsl/track_builder.h"

namespace fixy {

/// One scene's association pass: the requested track views plus a lazily
/// shared feature-score cache per view. Not thread-safe — one pass lives
/// inside one batch worker (or one Fixy::Find call).
class ScenePass {
 public:
  /// Runs association over `scene` for the requested views, recording the
  /// shared rank.track_build timer and rank.track_builds counter. Errors
  /// propagate from TrackBuilder::BuildViews (scene validation).
  static Result<ScenePass> Run(const Scene& scene,
                               const TrackBuilderOptions& options,
                               bool need_full, bool need_model_only);

  /// The requested view's tracks; aborts if the view was not built.
  const TrackSet& tracks(SceneView view) const { return views_.view(view); }

  /// The view's shared raw-score cache (never null for a built view).
  FeatureScoreCache* cache(SceneView view);

 private:
  ScenePass(AssociationViews views, double frame_rate_hz);

  AssociationViews views_;
  std::optional<FeatureScoreCache> full_cache_;
  std::optional<FeatureScoreCache> model_cache_;
};

/// Compiles and scores one application against the pass — Compile over the
/// application's view (raw likelihoods read through the pass's shared
/// cache), extract, deterministic rank — recorded under the application's
/// rank.<name>.* metric keys. The proposals are byte-identical to a
/// standalone single-application run over the same scene.
Result<std::vector<ErrorProposal>> RunApplicationOnPass(
    const AppSpec& app, const LoaSpec& spec, const Scene& scene,
    ScenePass& pass, const ApplicationOptions& options);

/// Records at zero, on the calling thread's collector, every key that
/// ScenePass::Run and RunApplicationOnPass record: rank.track_build,
/// rank.track_builds, and rank.<name>.{compile,factors,proposals} for each
/// of `apps`. Snapshots then carry one key set whichever applications ran.
void RecordRankMetricsSchema(const std::vector<std::string>& apps);

}  // namespace fixy

#endif  // FIXY_CORE_SCENE_PASS_H_
