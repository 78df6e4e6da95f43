#include "baselines/model_assertions.h"

#include <algorithm>

#include "common/macros.h"
#include "common/random.h"
#include "core/applications.h"
#include "core/ranker.h"
#include "dsl/track_builder.h"
#include "geometry/iou.h"

namespace fixy::baselines {

namespace {

// The assertions' fixed thresholds, as the paper's evaluation deploys them.
// Minimum model detections for the consistency assertion to fire.
constexpr size_t kConsistencyMinLength = 2;
// Tracks of at most this many observations trip the appear assertion.
constexpr size_t kAppearMaxObservations = 2;
// Pairwise BEV IoU above which two model boxes overlap for multibox.
constexpr double kMultiboxIou = 0.15;

}  // namespace

Result<std::vector<ErrorProposal>> ConsistencyAssertion(const Scene& scene,
                                                        MaOrdering ordering,
                                                        uint64_t seed) {
  FIXY_ASSIGN_OR_RETURN(TrackSet tracks, TrackBuilder().Build(scene));
  Rng rng(seed);

  std::vector<ErrorProposal> proposals;
  for (const Track& track : tracks.tracks) {
    // The assertion fires on consistent model predictions lacking any
    // human label.
    if (track.HasSource(ObservationSource::kHuman)) continue;
    if (!track.HasSource(ObservationSource::kModel)) continue;
    if (track.TotalObservations() < kConsistencyMinLength) continue;
    ErrorProposal proposal = internal::MakeTrackProposal(
        scene, track, ProposalKind::kMissingTrack, 0.0);
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

Result<std::vector<ErrorProposal>> AppearAssertion(const Scene& scene) {
  FIXY_ASSIGN_OR_RETURN(
      TrackSet tracks,
      TrackBuilder().Build(FilterToSource(scene, ObservationSource::kModel)));
  std::vector<ErrorProposal> proposals;
  for (const Track& track : tracks.tracks) {
    if (track.TotalObservations() > kAppearMaxObservations) continue;
    // Shorter tracks are more severe.
    proposals.push_back(internal::MakeTrackProposal(
        scene, track, ProposalKind::kModelError,
        1.0 / (1.0 + static_cast<double>(track.TotalObservations()))));
  }
  RankProposals(&proposals);
  return proposals;
}

Result<std::vector<ErrorProposal>> FlickerAssertion(const Scene& scene) {
  FIXY_ASSIGN_OR_RETURN(
      TrackSet tracks,
      TrackBuilder().Build(FilterToSource(scene, ObservationSource::kModel)));
  std::vector<ErrorProposal> proposals;
  for (const Track& track : tracks.tracks) {
    // Count frame gaps between consecutive bundles.
    int gaps = 0;
    const auto& bundles = track.bundles();
    for (size_t b = 0; b + 1 < bundles.size(); ++b) {
      if (bundles[b + 1].frame_index - bundles[b].frame_index > 1) ++gaps;
    }
    if (gaps == 0) continue;
    proposals.push_back(internal::MakeTrackProposal(
        scene, track, ProposalKind::kModelError, static_cast<double>(gaps)));
  }
  RankProposals(&proposals);
  return proposals;
}

Result<std::vector<ErrorProposal>> MultiboxAssertion(const Scene& scene) {
  std::vector<ErrorProposal> proposals;
  for (const Frame& frame : scene.frames()) {
    // Model boxes in this frame, each with its footprint: every box is
    // tested against every other.
    std::vector<const Observation*> boxes;
    std::vector<geom::BevFootprint> footprints;
    for (const Observation& obs : frame.observations) {
      if (obs.source != ObservationSource::kModel) continue;
      boxes.push_back(&obs);
      footprints.emplace_back(obs.box);
    }
    // Find any box overlapped by at least two others.
    for (size_t i = 0; i < boxes.size(); ++i) {
      int overlaps = 0;
      for (size_t j = 0; j < boxes.size(); ++j) {
        if (i == j) continue;
        if (geom::BevIou(footprints[i], footprints[j]) > kMultiboxIou) {
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
