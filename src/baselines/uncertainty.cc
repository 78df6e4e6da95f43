#include "baselines/uncertainty.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "core/ranker.h"
#include "dsl/track_builder.h"

namespace fixy::baselines {

namespace {

// The decision threshold predictions are sampled around.
constexpr double kUncertaintyThreshold = 0.5;

}  // namespace

Result<std::vector<ErrorProposal>> UncertaintySampling(const Scene& scene) {
  // Assemble tracks over model predictions so proposals carry track spans
  // (needed for error matching) and can be deduplicated per object.
  FIXY_ASSIGN_OR_RETURN(
      TrackSet tracks,
      TrackBuilder().Build(FilterToSource(scene, ObservationSource::kModel)));

  std::vector<ErrorProposal> proposals;
  for (const Track& track : tracks.tracks) {
    ErrorProposal best;
    double best_score = -1.0;
    for (const ObservationBundle& bundle : track.bundles()) {
      for (const Observation& obs : bundle.observations) {
        // Uncertainty peaks at the threshold: score in (0, 1].
        const double score =
            1.0 - std::abs(obs.confidence - kUncertaintyThreshold);
        if (score <= best_score) continue;
        best.scene_name = scene.name();
        best.kind = ProposalKind::kModelError;
        best.track_id = track.id();
        best.frame_index = bundle.frame_index;
        best.box = obs.box;
        best.object_class = obs.object_class;
        best.model_confidence = obs.confidence;
        best.first_frame = track.FirstFrame();
        best.last_frame = track.LastFrame();
        best.score = score;
        best_score = score;
      }
    }
    if (best_score >= 0.0) proposals.push_back(std::move(best));
  }
  RankProposals(&proposals);
  return proposals;
}

}  // namespace fixy::baselines
