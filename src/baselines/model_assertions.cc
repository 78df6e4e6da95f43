#include "baselines/model_assertions.h"

#include <algorithm>

#include "common/macros.h"
#include "common/random.h"
#include "core/ranker.h"
#include "geometry/iou.h"

namespace fixy::baselines {

namespace {

// Representative proposal for a track (closest-approach bundle).
ErrorProposal TrackProposal(const Scene& scene, const Track& track,
                            ProposalKind kind) {
  size_t best = 0;
  double best_distance = -1.0;
  for (size_t b = 0; b < track.bundles().size(); ++b) {
    const ObservationBundle& bundle = track.bundles()[b];
    const double d = (bundle.MeanCenter().Xy() - bundle.ego_position).Norm();
    if (best_distance < 0.0 || d < best_distance) {
      best = b;
      best_distance = d;
    }
  }
  const ObservationBundle& bundle = track.bundles()[best];
  const Observation* model = bundle.FindBySource(ObservationSource::kModel);
  const Observation& obs =
      model != nullptr ? *model : bundle.observations.front();

  ErrorProposal proposal;
  proposal.scene_name = scene.name();
  proposal.kind = kind;
  proposal.track_id = track.id();
  proposal.frame_index = bundle.frame_index;
  proposal.box = obs.box;
  proposal.object_class = track.MajorityClass().value_or(ObjectClass::kCar);
  proposal.model_confidence = track.MeanModelConfidence().value_or(0.0);
  proposal.first_frame = track.FirstFrame();
  proposal.last_frame = track.LastFrame();
  return proposal;
}

Result<TrackSet> BuildTracks(const Scene& scene, const MaOptions& options) {
  const TrackBuilder builder(options.track_builder);
  return builder.Build(scene);
}

}  // namespace

Result<std::vector<ErrorProposal>> ConsistencyAssertion(
    const Scene& scene, MaOrdering ordering, uint64_t seed,
    const MaOptions& options) {
  FIXY_ASSIGN_OR_RETURN(TrackSet tracks, BuildTracks(scene, options));
  Rng rng(seed);

  std::vector<ErrorProposal> proposals;
  for (const Track& track : tracks.tracks) {
    // The assertion fires on consistent model predictions lacking any
    // human label.
    if (track.HasSource(ObservationSource::kHuman)) continue;
    if (!track.HasSource(ObservationSource::kModel)) continue;
    if (static_cast<int>(track.TotalObservations()) <
        options.consistency_min_length) {
      continue;
    }
    ErrorProposal proposal =
        TrackProposal(scene, track, ProposalKind::kMissingTrack);
    // Ad-hoc severity: random or raw confidence — exactly the calibration
    // weakness the paper contrasts with LOA's learned scores.
    proposal.score = ordering == MaOrdering::kRandom
                         ? rng.Uniform()
                         : proposal.model_confidence;
    proposals.push_back(std::move(proposal));
  }
  RankProposals(&proposals);
  return proposals;
}

Result<std::vector<ErrorProposal>> AppearAssertion(const Scene& scene,
                                                   const MaOptions& options) {
  const Scene model_scene = FilterToSource(scene, ObservationSource::kModel);
  FIXY_ASSIGN_OR_RETURN(TrackSet tracks, BuildTracks(model_scene, options));
  std::vector<ErrorProposal> proposals;
  for (const Track& track : tracks.tracks) {
    if (static_cast<int>(track.TotalObservations()) >
        options.appear_max_observations) {
      continue;
    }
    ErrorProposal proposal =
        TrackProposal(scene, track, ProposalKind::kModelError);
    // Shorter tracks are more severe.
    proposal.score =
        1.0 / (1.0 + static_cast<double>(track.TotalObservations()));
    proposals.push_back(std::move(proposal));
  }
  RankProposals(&proposals);
  return proposals;
}

Result<std::vector<ErrorProposal>> FlickerAssertion(const Scene& scene,
                                                    const MaOptions& options) {
  const Scene model_scene = FilterToSource(scene, ObservationSource::kModel);
  FIXY_ASSIGN_OR_RETURN(TrackSet tracks, BuildTracks(model_scene, options));
  std::vector<ErrorProposal> proposals;
  for (const Track& track : tracks.tracks) {
    // Count frame gaps between consecutive bundles.
    int gaps = 0;
    const auto& bundles = track.bundles();
    for (size_t b = 0; b + 1 < bundles.size(); ++b) {
      if (bundles[b + 1].frame_index - bundles[b].frame_index > 1) ++gaps;
    }
    if (gaps == 0) continue;
    ErrorProposal proposal =
        TrackProposal(scene, track, ProposalKind::kModelError);
    proposal.score = static_cast<double>(gaps);
    proposals.push_back(std::move(proposal));
  }
  RankProposals(&proposals);
  return proposals;
}

Result<std::vector<ErrorProposal>> MultiboxAssertion(
    const Scene& scene, const MaOptions& options) {
  std::vector<ErrorProposal> proposals;
  for (const Frame& frame : scene.frames()) {
    // Model boxes in this frame.
    std::vector<const Observation*> boxes;
    for (const Observation& obs : frame.observations) {
      if (obs.source == ObservationSource::kModel) boxes.push_back(&obs);
    }
    // Find any box overlapped by at least two others.
    for (size_t i = 0; i < boxes.size(); ++i) {
      int overlaps = 0;
      for (size_t j = 0; j < boxes.size(); ++j) {
        if (i == j) continue;
        if (geom::BevIou(boxes[i]->box, boxes[j]->box) >
            options.multibox_iou) {
          ++overlaps;
        }
      }
      if (overlaps < 2) continue;
      ErrorProposal proposal;
      proposal.scene_name = scene.name();
      proposal.kind = ProposalKind::kModelError;
      proposal.track_id = boxes[i]->id;  // no track context at frame level
      proposal.frame_index = frame.index;
      proposal.box = boxes[i]->box;
      proposal.object_class = boxes[i]->object_class;
      proposal.model_confidence = boxes[i]->confidence;
      proposal.first_frame = frame.index;
      proposal.last_frame = frame.index;
      proposal.score = static_cast<double>(overlaps);
      proposals.push_back(std::move(proposal));
    }
  }
  RankProposals(&proposals);
  return proposals;
}

}  // namespace fixy::baselines
