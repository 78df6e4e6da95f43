// The three applications of Section 7 of the paper, each a different
// configuration of association, feature distributions, and AOFs over the
// same compiled-graph scoring machinery:
//
//   - missing-tracks:  tracks the human labels missed entirely;
//   - missing-obs:     missing human boxes within labeled tracks;
//   - model-errors:    erroneous ML model predictions.
//
// Each is packaged as an AppSpec (spec builder + extraction strategy) so
// it plugs into the ApplicationRegistry alongside user applications, and
// is named only by its registry name. To rank one scene, use
// Fixy::Find(scene, name); to rank against a spec of your own, run
// ScenePass::Run and RunApplicationOnPass (core/scene_pass.h), the
// pipeline every ranking call uses.
#ifndef FIXY_CORE_APPLICATIONS_H_
#define FIXY_CORE_APPLICATIONS_H_

#include <optional>
#include <vector>

#include "core/app_spec.h"
#include "core/proposal.h"
#include "data/scene.h"
#include "dsl/feature_distribution.h"
#include "dsl/track_builder.h"

namespace fixy {

/// Spec builders: each application's LoaSpec is a pure function of the
/// learned distributions and the options, so callers ranking many scenes
/// (the Fixy engine, the batch path) build it once and reuse it instead of
/// re-wrapping every FeatureDistribution per scene. The specs are
/// immutable after construction and safe to share across threads.
///
/// Missing tracks: learned features with identity AOFs plus the manual
/// distance-severity, model-only, and count-filter factors of Table 2.
LoaSpec BuildMissingTracksSpec(const std::vector<FeatureDistribution>& learned,
                               const ApplicationOptions& options);

/// Missing observations: learned features with identity AOFs plus the
/// manual distance-severity factor.
LoaSpec BuildMissingObservationsSpec(
    const std::vector<FeatureDistribution>& learned,
    const ApplicationOptions& options);

/// Model errors: every learned feature wrapped in the inverting AOF so
/// *unlikely* tracks rank first (Section 8.4).
LoaSpec BuildModelErrorsSpec(const std::vector<FeatureDistribution>& learned);

/// The paper applications as registry entries. MissingTracksApp and
/// MissingObservationsApp build their specs from the learned set without
/// the count distribution and associate over the full scene;
/// ModelErrorsApp builds from the count-augmented set and associates
/// model predictions only.
AppSpec MissingTracksApp();
AppSpec MissingObservationsApp();
AppSpec ModelErrorsApp();

/// Extraction strategies (the AppSpec::extract of the factories above),
/// exposed for reuse by custom applications that remix them.
///
/// Missing tracks (Section 7, "Finding missing tracks"): ranks tracks that
/// contain no human proposal — the AOF zero-out — by descending
/// plausibility; consistent model-only tracks are likely real objects.
std::vector<ErrorProposal> ExtractMissingTracks(const AppContext& ctx);

/// Missing observations (Section 7, "Finding missing labels within
/// tracks"): ranks model-only bundles interior to the human-labeled span
/// of human-containing tracks.
std::vector<ErrorProposal> ExtractMissingObservations(const AppContext& ctx);

/// Model errors (Section 7, "Finding erroneous ML model predictions"):
/// ranks model tracks longer than the count threshold by descending
/// implausibility (the spec's inverting AOF).
std::vector<ErrorProposal> ExtractModelErrors(const AppContext& ctx);

namespace internal {

/// Index of the non-empty bundle whose consensus position comes closest to
/// the ego vehicle — the proposal's representative (safety-relevant) view.
/// Empty bundles are skipped; nullopt when every bundle is empty.
std::optional<size_t> ClosestApproachBundle(const Track& track);

/// Representative observation of a bundle: the model prediction when one
/// exists, otherwise the first member. nullptr for an empty bundle.
const Observation* RepresentativeObservation(const ObservationBundle& bundle);

}  // namespace internal

}  // namespace fixy

#endif  // FIXY_CORE_APPLICATIONS_H_
