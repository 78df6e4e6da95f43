// AppSpec: one error-ranking application as data — a name, the scene view
// it associates over, and the two strategies that make it rankable (spec
// assembly from the learned state, and proposal extraction from a compiled
// factor graph). The paper's three applications (Section 7) and user
// applications are the same shape; the ApplicationRegistry maps names to
// these specs and the engine ranks whatever is registered.
#ifndef FIXY_CORE_APP_SPEC_H_
#define FIXY_CORE_APP_SPEC_H_

#include <functional>
#include <string>
#include <vector>

#include "core/proposal.h"
#include "data/scene.h"
#include "dsl/feature_distribution.h"
#include "dsl/track_builder.h"
#include "graph/factor_graph.h"

namespace fixy {

/// Options shared by every application's online phase.
struct ApplicationOptions {
  /// Association options for the shared scene pass.
  TrackBuilderOptions track_builder;

  /// Whether the label-error specs include the manual distance-severity
  /// factor of Table 2 ("errors closer to the AV are more severe").
  bool include_distance_severity = true;

  /// Whether the missing-tracks spec includes the manual count filter
  /// (tracks of kMinTrackObservations or fewer are implausible).
  bool include_count_filter = true;

  /// Whether component scores are normalized by their factor count
  /// (Section 6). The ablation bench turns this off; everything else
  /// should leave it on.
  bool normalize_scores = true;
};

/// The learned state applications build their specs from: the base
/// (label-error) distributions, and the count-augmented set the
/// model-error application uses (Section 8.4 adds "a track feature over
/// the total number of observations").
struct LearnedState {
  const std::vector<FeatureDistribution>& base;
  const std::vector<FeatureDistribution>& with_count;
};

/// Everything an extraction strategy sees: the compiled, scored factor
/// graph over the application's view, the scene it came from, and the
/// run's options.
struct AppContext {
  const FactorGraph& graph;
  const Scene& scene;
  const ApplicationOptions& options;
};

/// One application, as registered: strategies plus the metadata the
/// engine needs to run them through the shared scene pass.
struct AppSpec {
  /// Registry name ("missing-tracks"). Non-empty, no whitespace or commas
  /// (the CLI's --apps splits on commas).
  std::string name;

  /// The association view this application compiles over.
  SceneView view = SceneView::kFull;

  /// Builds the application's LoaSpec from the learned state. Pure: the
  /// engine calls it once per Learn()/LoadModel() and shares the result
  /// across scenes and threads.
  std::function<LoaSpec(const LearnedState&, const ApplicationOptions&)>
      build_spec;

  /// Turns a compiled graph into (unranked) proposals; the pipeline ranks
  /// them deterministically afterwards.
  std::function<std::vector<ErrorProposal>(const AppContext&)> extract;
};

}  // namespace fixy

#endif  // FIXY_CORE_APP_SPEC_H_
