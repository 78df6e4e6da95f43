#include "core/scene_pass.h"

#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "core/ranker.h"
#include "graph/factor_graph.h"
#include "obs/metrics.h"

namespace fixy {

ScenePass::ScenePass(AssociationViews views, double frame_rate_hz)
    : views_(std::move(views)) {
  if (views_.full.has_value()) full_cache_.emplace(frame_rate_hz);
  if (views_.model_only.has_value()) model_cache_.emplace(frame_rate_hz);
}

Result<ScenePass> ScenePass::Run(const Scene& scene,
                                 const TrackBuilderOptions& options,
                                 bool need_full, bool need_model_only) {
  const obs::ScopedStageTimer timer("rank.track_build");
  obs::Count("rank.track_builds");
  const TrackBuilder builder(options);
  FIXY_ASSIGN_OR_RETURN(AssociationViews views,
                        builder.BuildViews(scene, need_full, need_model_only));
  return ScenePass(std::move(views), scene.frame_rate_hz());
}

FeatureScoreCache* ScenePass::cache(SceneView view) {
  switch (view) {
    case SceneView::kFull:
      return full_cache_.has_value() ? &*full_cache_ : nullptr;
    case SceneView::kModelOnly:
      return model_cache_.has_value() ? &*model_cache_ : nullptr;
  }
  return nullptr;
}

Result<std::vector<ErrorProposal>> RunApplicationOnPass(
    const AppSpec& app, const LoaSpec& spec, const Scene& scene,
    ScenePass& pass, const ApplicationOptions& options) {
  FIXY_CHECK_MSG(app.extract != nullptr,
                 "application '%s' has no extract strategy",
                 app.name.c_str());
  // The per-app keys are built only when metrics are on, so the
  // metrics-off path allocates no key strings.
  const bool metered = obs::Enabled();
  const obs::StageTimer compile_timer;
  Result<FactorGraph> graph =
      FactorGraph::Compile(pass.tracks(app.view), spec, scene.frame_rate_hz(),
                           pass.cache(app.view));
  if (metered) {
    obs::AddTimeNs("rank." + app.name + ".compile", compile_timer.ElapsedNs());
  }
  FIXY_RETURN_IF_ERROR(graph.status());
  std::vector<ErrorProposal> proposals =
      app.extract(AppContext{*graph, scene, options});
  RankProposals(&proposals);
  if (metered) {
    obs::Count("rank." + app.name + ".factors", graph->factors().size());
    obs::Count("rank." + app.name + ".proposals", proposals.size());
  }
  return proposals;
}

void RecordRankMetricsSchema(const std::vector<std::string>& apps) {
  obs::AddTimeNs("rank.track_build", 0);
  obs::Count("rank.track_builds", 0);
  for (const std::string& name : apps) {
    obs::AddTimeNs("rank." + name + ".compile", 0);
    obs::Count("rank." + name + ".factors", 0);
    obs::Count("rank." + name + ".proposals", 0);
  }
}

}  // namespace fixy
