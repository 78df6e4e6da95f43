#include "core/applications.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/features_std.h"
#include "graph/factor_graph.h"

namespace fixy {

namespace internal {

std::optional<size_t> ClosestApproachBundle(const Track& track) {
  std::optional<size_t> best;
  double best_distance = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < track.bundles().size(); ++b) {
    const ObservationBundle& bundle = track.bundles()[b];
    if (bundle.observations.empty()) continue;
    const double d = (bundle.MeanCenter().Xy() - bundle.ego_position).Norm();
    if (!best.has_value() || d < best_distance) {
      best = b;
      best_distance = d;
    }
  }
  return best;
}

const Observation* RepresentativeObservation(const ObservationBundle& bundle) {
  const Observation* model = bundle.FindBySource(ObservationSource::kModel);
  if (model != nullptr) return model;
  return bundle.observations.empty() ? nullptr : &bundle.observations.front();
}

ErrorProposal MakeTrackProposal(const Scene& scene, const Track& track,
                                ProposalKind kind, double score) {
  ErrorProposal proposal;
  proposal.scene_name = scene.name();
  proposal.kind = kind;
  proposal.track_id = track.id();
  proposal.object_class =
      track.MajorityClass().value_or(ObjectClass::kCar);
  proposal.score = score;
  proposal.model_confidence = track.MeanModelConfidence().value_or(0.0);
  proposal.first_frame = track.FirstFrame();
  proposal.last_frame = track.LastFrame();
  const std::optional<size_t> b = ClosestApproachBundle(track);
  if (b.has_value()) {
    const ObservationBundle& bundle = track.bundles()[*b];
    const Observation* obs = RepresentativeObservation(bundle);
    proposal.frame_index = bundle.frame_index;
    if (obs != nullptr) proposal.box = obs->box;
  }
  return proposal;
}

}  // namespace internal

LoaSpec BuildMissingTracksSpec(const std::vector<FeatureDistribution>& learned,
                               const ApplicationOptions& options) {
  // Spec: learned features with identity AOFs, plus the manual severity
  // and filter factors of Table 2.
  LoaSpec spec;
  for (const FeatureDistribution& fd : learned) {
    spec.feature_distributions.push_back(fd.WithAof(MakeIdentityAof()));
  }
  if (options.include_distance_severity) {
    spec.feature_distributions.emplace_back(
        std::make_shared<DistanceFeature>(),
        MakeDistanceSeverityDistribution());
  }
  spec.feature_distributions.emplace_back(
      std::make_shared<ModelOnlyFeature>(), MakeModelOnlyDistribution());
  if (options.include_count_filter) {
    spec.feature_distributions.emplace_back(std::make_shared<CountFeature>(),
                                            MakeCountFilterDistribution());
  }
  return spec;
}

namespace {

// Missing observations: learned features with identity AOFs plus the
// manual distance-severity factor.
LoaSpec BuildMissingObservationsSpec(
    const std::vector<FeatureDistribution>& learned,
    const ApplicationOptions& options) {
  LoaSpec spec;
  for (const FeatureDistribution& fd : learned) {
    spec.feature_distributions.push_back(fd.WithAof(MakeIdentityAof()));
  }
  if (options.include_distance_severity) {
    spec.feature_distributions.emplace_back(
        std::make_shared<DistanceFeature>(),
        MakeDistanceSeverityDistribution());
  }
  return spec;
}

// Model errors: every learned feature wrapped in the inverting AOF.
LoaSpec BuildModelErrorsSpec(const std::vector<FeatureDistribution>& learned) {
  // "The AOF inverts the probability of each feature" so that unlikely
  // tracks rank first. Distance and model-only are not deployed here
  // (Section 8.4).
  LoaSpec spec;
  for (const FeatureDistribution& fd : learned) {
    spec.feature_distributions.push_back(fd.WithAof(MakeInvertAof()));
  }
  return spec;
}

// Missing tracks (Section 7, "Finding missing tracks"): ranks tracks that
// contain no human proposal — the AOF zero-out — by descending
// plausibility; consistent model-only tracks are likely real objects.
std::vector<ErrorProposal> ExtractMissingTracks(const AppContext& ctx) {
  std::vector<ErrorProposal> proposals;
  const TrackSet& tracks = ctx.graph.tracks();
  for (size_t t = 0; t < tracks.tracks.size(); ++t) {
    const Track& track = tracks.tracks[t];
    // AOF zero-out: any track containing a human proposal is not a missing
    // track; the remaining tracks contain only model predictions.
    if (track.HasSource(ObservationSource::kHuman)) continue;
    if (!track.HasSource(ObservationSource::kModel)) continue;
    const std::optional<double> score =
        ctx.graph.ScoreTrack(t, ctx.options.normalize_scores);
    if (!score.has_value()) continue;
    proposals.push_back(internal::MakeTrackProposal(
        ctx.scene, track, ProposalKind::kMissingTrack, *score));
  }
  return proposals;
}

// Missing observations (Section 7, "Finding missing labels within
// tracks"): ranks model-only bundles interior to the human-labeled span of
// human-containing tracks.
std::vector<ErrorProposal> ExtractMissingObservations(const AppContext& ctx) {
  std::vector<ErrorProposal> proposals;
  const TrackSet& tracks = ctx.graph.tracks();
  for (size_t t = 0; t < tracks.tracks.size(); ++t) {
    const Track& track = tracks.tracks[t];
    // AOF zero-out (Section 8.3): tracks without any human proposal are
    // zeroed, as are bundles that already contain a human proposal. The
    // remaining candidates are model-only predictions *interior* to the
    // human-labeled span of the track — a label missing "within" a track
    // (Figure 6) sits between human boxes; model-only bundles at the track
    // fringes are ordinary detection-span mismatch, not label errors.
    if (!track.HasSource(ObservationSource::kHuman)) continue;
    int first_human = -1;
    int last_human = -1;
    for (const ObservationBundle& bundle : track.bundles()) {
      if (bundle.HasSource(ObservationSource::kHuman)) {
        if (first_human < 0) first_human = bundle.frame_index;
        last_human = bundle.frame_index;
      }
    }
    for (size_t b = 0; b < track.bundles().size(); ++b) {
      const ObservationBundle& bundle = track.bundles()[b];
      if (bundle.HasSource(ObservationSource::kHuman)) continue;
      if (!bundle.HasSource(ObservationSource::kModel)) continue;
      if (bundle.frame_index <= first_human ||
          bundle.frame_index >= last_human) {
        continue;
      }
      const std::optional<double> score = ctx.graph.ScoreBundle(t, b);
      if (!score.has_value()) continue;
      const Observation* obs = internal::RepresentativeObservation(bundle);
      if (obs == nullptr) continue;
      ErrorProposal proposal;
      proposal.scene_name = ctx.scene.name();
      proposal.kind = ProposalKind::kMissingObservation;
      proposal.track_id = track.id();
      proposal.frame_index = bundle.frame_index;
      proposal.box = obs->box;
      proposal.object_class =
          track.MajorityClass().value_or(ObjectClass::kCar);
      proposal.score = *score;
      proposal.model_confidence = obs->confidence;
      proposal.first_frame = track.FirstFrame();
      proposal.last_frame = track.LastFrame();
      proposals.push_back(std::move(proposal));
    }
  }
  return proposals;
}

// Model errors (Section 7, "Finding erroneous ML model predictions"):
// ranks model tracks longer than the appear assertion's territory by
// descending implausibility (the spec's inverting AOF).
std::vector<ErrorProposal> ExtractModelErrors(const AppContext& ctx) {
  std::vector<ErrorProposal> proposals;
  const TrackSet& tracks = ctx.graph.tracks();
  for (size_t t = 0; t < tracks.tracks.size(); ++t) {
    const Track& track = tracks.tracks[t];
    if (track.bundles().empty()) continue;
    // Tracks of <= 2 observations are the appear assertion's territory
    // (Section 8.4 hunts errors that are "longer than two observations, so
    // will not trigger the appear assertion"); skipping them keeps Fixy
    // focused on the novel error class.
    if (track.TotalObservations() <= kMinTrackObservations) continue;
    const std::optional<double> score = ctx.graph.ScoreTrack(t);
    if (!score.has_value()) continue;
    proposals.push_back(internal::MakeTrackProposal(
        ctx.scene, track, ProposalKind::kModelError, *score));
  }
  return proposals;
}

}  // namespace

AppSpec MissingTracksApp() {
  AppSpec app;
  app.name = "missing-tracks";
  app.view = SceneView::kFull;
  app.build_spec = [](const LearnedState& learned,
                      const ApplicationOptions& options) {
    return BuildMissingTracksSpec(learned.base, options);
  };
  app.extract = ExtractMissingTracks;
  return app;
}

AppSpec MissingObservationsApp() {
  AppSpec app;
  app.name = "missing-obs";
  app.view = SceneView::kFull;
  app.build_spec = [](const LearnedState& learned,
                      const ApplicationOptions& options) {
    return BuildMissingObservationsSpec(learned.base, options);
  };
  app.extract = ExtractMissingObservations;
  return app;
}

AppSpec ModelErrorsApp() {
  AppSpec app;
  app.name = "model-errors";
  app.view = SceneView::kModelOnly;
  app.build_spec = [](const LearnedState& learned,
                      const ApplicationOptions& options) {
    (void)options;
    // Section 8.4 adds "a track feature over the total number of
    // observations": the learned count distribution joins the spec here,
    // where the label-error applications use the manual count filter.
    return BuildModelErrorsSpec(learned.with_count);
  };
  app.extract = ExtractModelErrors;
  return app;
}

}  // namespace fixy
