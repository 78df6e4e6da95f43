// TrackBuilder: assembles raw per-frame observations into observation
// bundles (within a frame) and tracks (across frames), Section 4.2 of the
// paper. "The analyst first associates observations within a time step
// (i.e., overlapping model predictions and human labels) and between
// adjacent timesteps (i.e., objects across time)."
//
// Applications associate over different *views* of a scene: the label
// error applications see every observation, while the model-error
// application associates model predictions only (Section 8.4 assumes no
// human proposals). BuildViews derives both track sets from a single
// pairwise-association sweep per frame, so a multi-application pass runs
// association once per scene instead of once per application.
#ifndef FIXY_DSL_TRACK_BUILDER_H_
#define FIXY_DSL_TRACK_BUILDER_H_

#include <optional>

#include "common/result.h"
#include "data/scene.h"
#include "data/track.h"
#include "dsl/bundler.h"

namespace fixy {

/// Which observations of a scene participate in association.
enum class SceneView {
  /// Every observation (human labels and model predictions).
  kFull = 0,
  /// Model predictions only — the model-error application's view.
  kModelOnly = 1,
};

/// Minimum BEV IoU for linking a bundle to the previous bundle of a track.
/// Looser than the in-frame threshold because objects move between frames.
inline constexpr double kTrackIouThreshold = 0.1;

/// A track stays open for this many frames without a match before being
/// closed; gaps let flickering detections land in one track (which the
/// flicker baseline assertion then inspects).
inline constexpr int kMaxGapFrames = 2;

/// Options controlling track assembly.
struct TrackBuilderOptions {
  /// Bundler used to group observations within a frame; defaults to
  /// IouBundler(0.5) when null. Must be a pure function of the two
  /// observations: BuildViews evaluates each pair once and reuses the
  /// result for every view (and the batch path shares one bundler across
  /// worker threads). An IouBundler's pairs are tested on box footprints
  /// computed once per observation, with the bits IsAssociated gives;
  /// any other bundler is asked IsAssociated per pair.
  BundlerPtr bundler;
};

/// The track sets one association pass produced, one per requested view.
/// The model-only view is byte-identical to Build() over a copy of the
/// scene filtered to model observations: the pairwise association relation
/// restricted to model observations is the induced subgraph of the full
/// relation, and the linking stage runs the identical algorithm per view.
struct AssociationViews {
  std::optional<TrackSet> full;
  std::optional<TrackSet> model_only;

  /// The requested view's tracks; aborts if the view was not built.
  const TrackSet& view(SceneView v) const;
};

/// Groups each frame's observations into bundles (connected components
/// under the bundler's association relation) and links bundles across
/// frames into tracks by greedy best-IoU matching.
///
/// Errors: FailedPrecondition if the scene fails Scene::Validate().
class TrackBuilder {
 public:
  explicit TrackBuilder(TrackBuilderOptions options = {});

  /// Single-view build over every observation (the kFull view).
  Result<TrackSet> Build(const Scene& scene) const;

  /// Builds the requested views from one association pass: each frame's
  /// observation pairs are evaluated against the bundler at most once,
  /// and every view's bundles and tracks are derived from those shared
  /// pair results. At least one view must be requested.
  Result<AssociationViews> BuildViews(const Scene& scene, bool need_full,
                                      bool need_model_only) const;

 private:
  TrackBuilderOptions options_;
};

}  // namespace fixy

#endif  // FIXY_DSL_TRACK_BUILDER_H_
