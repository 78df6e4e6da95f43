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

/// The missing-tracks spec: learned features with identity AOFs plus the
/// manual distance-severity, model-only, and count-filter factors of
/// Table 2. A pure function of the learned distributions and the options,
/// built once per Learn()/LoadModel() and shared across scenes and threads;
/// exported for the feature-ablation bench.
LoaSpec BuildMissingTracksSpec(const std::vector<FeatureDistribution>& learned,
                               const ApplicationOptions& options);

/// The paper applications as registry entries. MissingTracksApp and
/// MissingObservationsApp build their specs from the learned set without
/// the count distribution and associate over the full scene;
/// ModelErrorsApp builds from the count-augmented set and associates
/// model predictions only.
AppSpec MissingTracksApp();
AppSpec MissingObservationsApp();
AppSpec ModelErrorsApp();

namespace internal {

/// Index of the non-empty bundle whose consensus position comes closest to
/// the ego vehicle — the proposal's representative (safety-relevant) view.
/// Empty bundles are skipped; nullopt when every bundle is empty.
std::optional<size_t> ClosestApproachBundle(const Track& track);

/// Representative observation of a bundle: the model prediction when one
/// exists, otherwise the first member. nullptr for an empty bundle.
const Observation* RepresentativeObservation(const ObservationBundle& bundle);

/// A proposal for a whole track, shown at its closest approach to the AV:
/// the frame and box of ClosestApproachBundle's representative
/// observation, the track's span, majority class (car when it has none)
/// and mean model confidence. A track whose bundles are all empty keeps
/// the default frame and box.
ErrorProposal MakeTrackProposal(const Scene& scene, const Track& track,
                                ProposalKind kind, double score);

}  // namespace internal

}  // namespace fixy

#endif  // FIXY_CORE_APPLICATIONS_H_
