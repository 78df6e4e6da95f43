#include "baselines/uncertainty.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/macros.h"
#include "core/ranker.h"

namespace fixy::baselines {

Result<std::vector<ErrorProposal>> UncertaintySampling(
    const Scene& scene, const UncertaintyOptions& options) {
  // Assemble tracks over model predictions so proposals carry track spans
  // (needed for error matching) and can be deduplicated per object.
  const TrackBuilder builder(options.track_builder);
  FIXY_ASSIGN_OR_RETURN(
      TrackSet tracks,
      builder.Build(FilterToSource(scene, ObservationSource::kModel)));

  std::vector<ErrorProposal> proposals;
  for (const Track& track : tracks.tracks) {
    ErrorProposal best;
    double best_score = -1.0;
    for (const ObservationBundle& bundle : track.bundles()) {
      for (const Observation& obs : bundle.observations) {
        // Uncertainty peaks at the threshold: score in (0, 1].
        const double score =
            1.0 - std::abs(obs.confidence - options.confidence_threshold);
        if (score <= best_score && options.deduplicate_by_track) continue;
        ErrorProposal proposal;
        proposal.scene_name = scene.name();
        proposal.kind = ProposalKind::kModelError;
        proposal.track_id = track.id();
        proposal.frame_index = bundle.frame_index;
        proposal.box = obs.box;
        proposal.object_class = obs.object_class;
        proposal.model_confidence = obs.confidence;
        proposal.first_frame = track.FirstFrame();
        proposal.last_frame = track.LastFrame();
        proposal.score = score;
        if (options.deduplicate_by_track) {
          best = std::move(proposal);
          best_score = score;
        } else {
          proposals.push_back(std::move(proposal));
        }
      }
    }
    if (options.deduplicate_by_track && best_score >= 0.0) {
      proposals.push_back(std::move(best));
    }
  }
  RankProposals(&proposals);
  return proposals;
}

}  // namespace fixy::baselines
